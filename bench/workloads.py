"""Seeded config generators and the operation schedule of each workload.

A workload is a fixed *round*: a list of (command, shape) entries, run in a
seeded shuffled order.  Every round draws fresh random entries for each
shape, so no two operations of a run share an input, while the mix of
shapes (and so the share of heavy operations) is the same in every round
and for every seed.  Nothing here imports the library: configs are plain
JSON objects, rationals written as "p/q" strings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Shape = Tuple[str, dict]

# Points are drawn from the halves in [-6, 6], as the library's own tests do.
_POINT_POOL = [Fraction(k, 2) for k in range(-12, 13)]


def _s(x: Fraction) -> str:
    return str(Fraction(x))


def _rat(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _points(rng: random.Random, s: int) -> List[Fraction]:
    return sorted(rng.sample(_POINT_POOL, s))


def diag_of_theta(theta: Sequence[Fraction]) -> List[Fraction]:
    """Type-A weight diagonal of coroot coordinates (simple coroot i maps to
    E_ii - E_{i+1,i+1})."""
    t = [Fraction(0)] * (len(theta) + 1)
    for i, c in enumerate(theta):
        t[i] += c
        t[i + 1] -= c
    return t


def _theta_of_diag(t: Sequence[Fraction]) -> List[Fraction]:
    out, acc = [], Fraction(0)
    for v in t[:-1]:
        acc += v
        out.append(acc)
    return out


def _random_theta_diag(rng: random.Random, n: int) -> List[Fraction]:
    """A traceless weight diagonal whose values repeat often enough to give
    non-trivial Levi blocks."""
    values = [Fraction(0), Fraction(1, 4), Fraction(-1, 3), Fraction(1, 2)]
    t = [rng.choice(values) for _ in range(n - 1)]
    t.append(-sum(t, Fraction(0)))
    return t


def field_config(
    rng: random.Random, n: int, s: int, form: str = "SL", weighted: int = 0
) -> dict:
    """Random field with residue sum zero (regular at infinity).

    The first `weighted` points carry a theta weight; their residues are
    drawn inside the weight's parahoric stalk (entry (p, q) may be non-zero
    only when t_p >= t_q, i.e. the channel's jump is <= 0).  The last point
    never carries a weight, since its residue is fixed by the sum rule.
    """
    xs = _points(rng, s)
    diags: List[Optional[List[Fraction]]] = [None] * s
    for j in range(min(weighted, s - 1)):
        diags[j] = _random_theta_diag(rng, n)
    residues = []
    for j in range(s - 1):
        t = diags[j]
        m = [
            [
                _rat(rng, -3, 3, 2) if t is None or t[p] >= t[q] else Fraction(0)
                for q in range(n)
            ]
            for p in range(n)
        ]
        if form == "SL":
            m[n - 1][n - 1] -= sum(m[i][i] for i in range(n))
        residues.append(m)
    residues.append(
        [[-sum(r[p][q] for r in residues) for q in range(n)] for p in range(n)]
    )
    points = []
    for x, t in zip(xs, diags):
        entry: Dict[str, object] = {"x": _s(x)}
        if t is not None:
            entry["theta"] = [_s(c) for c in _theta_of_diag(t)]
        points.append(entry)
    return {
        "group": {"family": "A", "rank": n - 1, "form": form},
        "points": points,
        "residues": [[[_s(v) for v in row] for row in m] for m in residues],
    }


def hitchin_hams_config(rng: random.Random, n: int, s: int, form: str = "SL") -> dict:
    return {
        "group": {"family": "A", "rank": n - 1, "form": form},
        "points": [{"x": _s(x)} for x in _points(rng, s)],
        "options": {"hamiltonians": "hitchin"},
    }


def stability_config(rng: random.Random, m: int, gap: int) -> dict:
    """Rank-2 bundle O(a1) + O(a2) with a1 - a2 = gap and m weighted flags;
    the gap sets the size of the incidence systems."""
    a2 = rng.randint(-2, 2)
    a1 = a2 + gap
    flags = []
    for _ in range(m):
        c = d = 0
        while c == 0 and d == 0:
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        flags.append([str(c), str(d)])
    weights = [
        [_s(Fraction(rng.randrange(q), q)) for q in (rng.randint(2, 6), rng.randint(2, 6))]
        for _ in range(m)
    ]
    reductions = []
    for _ in range(rng.randint(1, 3)):
        total_rank = rng.randint(2, 4)
        reductions.append(
            {
                "sub_degree": rng.randint(-3, 3),
                "sub_rank": rng.randint(1, total_rank - 1),
                "total_degree": rng.randint(-3, 3),
                "total_rank": total_rank,
                "weight_pairings": [_s(_rat(rng, 0, 1, 5)) for _ in range(2)],
            }
        )
    return {
        "options": {
            "reductions": reductions,
            "rank2": {
                "split_degrees": [a1, a2],
                "flags": flags,
                "weights": weights,
                "points": [_s(x) for x in _points(rng, m)],
            },
        }
    }


def parahoric_config(rng: random.Random, family: str, rank: int, s: int) -> dict:
    return {
        "group": {"family": family, "rank": rank, "form": "SL"},
        "points": [
            {"x": _s(x), "theta": [_s(_rat(rng, -1, 1, 6)) for _ in range(rank)]}
            for x in _points(rng, s)
        ],
    }


def make_config(rng: random.Random, command: str, shape: dict) -> dict:
    kind = shape.get("kind", "field")
    if kind == "field":
        cfg = field_config(
            rng, shape["n"], shape["s"], shape.get("form", "SL"), shape.get("weighted", 0)
        )
    elif kind == "hitchin_hams":
        cfg = hitchin_hams_config(rng, shape["n"], shape["s"], shape.get("form", "SL"))
    elif kind == "rank2":
        cfg = stability_config(rng, shape["m"], shape["gap"])
    elif kind == "parahoric":
        cfg = parahoric_config(rng, shape["family"], shape["rank"], shape["s"])
    else:
        raise ValueError(f"unknown shape kind {kind!r}")
    cfg["command"] = command
    return cfg


def _fields(command: str, *shapes: str, **extra) -> List[Shape]:
    """Field shapes written "n,s" or "n,s,GL"."""
    out = []
    for text in shapes:
        n, s, *form = text.split(",")
        out.append((command, dict(n=int(n), s=int(s), form=form[0] if form else "SL", **extra)))
    return out


# Sizes follow the north-star ladder (n = 2..5, s = 3..7, m = 3..7).  Points
# that take seconds per operation stay out (spectral at n=4, s>=5: 27 s;
# rank-2 at m=8: 3.5-5 s, which alone would be half of a round's time), so
# that a run holds several rounds and 100 or more operations.
#
# Latencies across shapes spread over three decades.  Where p50 and p90 of a
# round fall, a few shapes of near-equal cost are repeated, so that each
# percentile lands inside a cluster of like operations instead of in the gap
# between two shapes, where it would jump with every small reordering.
ROUNDS: Dict[str, List[Shape]] = {
    # Q[z] coefficient growth: char_coeffs over Q[z], the Sylvester
    # determinant, and the characteristic polynomial residue_of_invariant
    # recomputes per (point, degree).  A heavy minority (spectral at n=3,
    # s=5/6 and n=4, s=3; diagram-check at n=4, s=5) dominates the time.
    # p50 cluster: spectral 3,3 and hitchin 4,4,GL; p90 cluster: spectral 4,3.
    "hitchin-spectral": (
        _fields("spectral", "2,3", "2,4", "2,5", "2,6", "2,7", "2,3,GL", "2,4,GL")
        + _fields("spectral", "2,5,GL", "2,6,GL")
        + _fields("spectral", "3,3", "3,3", "3,3", "3,3", "3,4", "3,4,GL")
        + _fields("spectral", "3,5", "3,5", "3,5,GL", "3,6")
        + _fields("spectral", "4,3", "4,3", "4,3", "4,3,GL")
        + _fields("hitchin", "2,3", "2,4,GL", "2,5", "2,7", "3,3", "3,4,GL", "3,5")
        + _fields("hitchin", "3,6", "4,3", "4,4,GL", "4,5", "4,7")
        + _fields("diagram-check", "2,3", "2,4", "2,5,GL", "3,3", "3,4", "3,5")
        + _fields("diagram-check", "3,6", "4,3", "4,4,GL", "4,5")
    ),
    # Lie-Poisson term blow-up: poisson.bracket over all Hamiltonian pairs
    # on the verify_involution thread pool, and char_coeffs over the two
    # Poisson-polynomial rings for the Hitchin-coefficient Hamiltonians.
    # p50 cluster: gaudin 5,6 / 4,7 and involution 2,5; p90 cluster:
    # involution 5,4 / 4,5 and the Hitchin-coefficient involutions at s=4.
    "poisson-involution": (
        _fields("involution", "2,3", "2,5", "2,7", "3,3", "3,4", "3,5", "3,6")
        + _fields("involution", "4,3", "4,4", "4,5", "5,3", "5,4", "5,5")
        + [("involution", dict(kind="hitchin_hams", n=2, s=s, form=form))
           for s, form in ((3, "SL"), (3, "GL"), (4, "SL"), (4, "GL"), (5, "SL"))]
        + _fields("gaudin", "2,3", "2,4", "2,5", "2,7", "3,3", "3,4", "3,5", "3,6")
        + _fields("gaudin", "3,7", "4,3", "4,4", "4,5", "4,7", "4,7", "5,3", "5,4")
        + _fields("gaudin", "5,6", "5,6", "5,7")
    ),
    # Fraction Gauss-Jordan elimination (nullspace inside the rank-2 subset
    # enumeration, rank of the Poisson bivector), Levi sites from weighted
    # points, and JSON output of thousands of rank-2 candidates.
    # p50 cluster: rank-2 at m=3 and leaf 3,3; p90 cluster: leaf 5,3 and
    # rank-2 at m=6.
    "stability-leaf": (
        [("stability", dict(kind="rank2", m=m, gap=gap))
         for m, gap in ((3, 0), (3, 1), (3, 1), (3, 1), (3, 2), (4, 0), (4, 1),
                        (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (7, 2))]
        + _fields("leaf", "2,4", "3,3", "3,3", "3,3", "4,3", "5,3", "5,3")
        + _fields("leaf", "2,5", "3,5", "4,4", "5,4", weighted=2)
        + _fields("moment", "3,4", "4,5", "5,3")
        + _fields("moment", "3,5", "4,4", "5,5", weighted=2)
        + [("parahoric-analyze", dict(kind="parahoric", family=f, rank=r, s=s))
           for f, r, s in (("A", 4, 5), ("B", 2, 5), ("B", 4, 3), ("C", 3, 3),
                           ("D", 4, 3), ("D", 5, 5), ("G", 2, 3), ("G", 2, 5))]
    ),
}


# Rounds in one end-to-end run.  The count is fixed, not set by a time
# budget, so that every version of the library runs the same operations;
# each run makes 148-234 operations, so more than 10 lie beyond p90.
# stability-leaf makes more rounds: its p90 falls among rank-2 operations
# whose cost varies most with their random flags.
RUN_ROUNDS: Dict[str, int] = {
    "hitchin-spectral": 4,
    "poisson-involution": 4,
    "stability-leaf": 6,
}


def round_configs(workload: str, rng: random.Random) -> List[Tuple[int, str, dict]]:
    """One round: (shape index, command, config) for every shape of the
    workload once, in a seeded order."""
    order = list(range(len(ROUNDS[workload])))
    rng.shuffle(order)
    out = []
    for k in order:
        command, shape = ROUNDS[workload][k]
        out.append((k, command, make_config(rng, command, shape)))
    return out
