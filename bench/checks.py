"""One correctness check per CLI command, run on each report outside the
timed region.

Each check compares the report against a value computed another way: the
field's Lax matrix evaluated at rational points that are not integers,
sums recomputed from the residues, orderings and verdicts recomputed from
the report's own candidates.  A check returns None when the report is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from logahoric import linalgq, polyq, rootsys
from logahoric.parahoric import VERDICT_BOUNDARY, VERDICT_FAIL, VERDICT_STABLE

from workloads import diag_of_theta

Z0 = (Fraction(1, 3), Fraction(-5, 7))


def digest(results) -> str:
    """Hash of a report's results payload (timing_seconds lies outside it)."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fr(values) -> List[Fraction]:
    return [Fraction(v) for v in values]


def _horner(coeffs: Sequence[Fraction], z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _field(cfg: dict):
    xs = [Fraction(p["x"]) for p in cfg["points"]]
    mats = [[_fr(row) for row in m] for m in cfg["residues"]]
    return xs, mats


def _lax_at(xs, mats, z: Fraction):
    """A(z) = prod(z - x_k) * sum X_j / (z - x_j), summed term by term."""
    n = len(mats[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, m in enumerate(mats):
        w = Fraction(1)
        for k, x in enumerate(xs):
            if k != j:
                w *= z - x
        for p in range(n):
            for q in range(n):
                out[p][q] += w * m[p][q]
    return out


def _sign_verdict(value: Fraction, bound: Fraction) -> str:
    if value > bound:
        return VERDICT_FAIL
    if value == bound:
        return VERDICT_BOUNDARY
    return VERDICT_STABLE


def _projected_sites(cfg: dict) -> List[List[List[Fraction]]]:
    """Each residue with the entries off its weight's blocks set to zero."""
    _, mats = _field(cfg)
    sites = []
    for point, m in zip(cfg["points"], mats):
        theta = point.get("theta")
        if theta is None:
            sites.append(m)
            continue
        t = diag_of_theta(_fr(theta))
        n = len(m)
        sites.append(
            [[m[p][q] if t[p] == t[q] else Fraction(0) for q in range(n)] for p in range(n)]
        )
    return sites


def _site_dims(cfg: dict) -> int:
    n = cfg["group"]["rank"] + 1
    total = 0
    for point in cfg["points"]:
        theta = point.get("theta")
        if theta is None:
            total += n * n
        else:
            t = diag_of_theta(_fr(theta))
            total += sum(1 for p in range(n) for q in range(n) if t[p] == t[q])
    return total


def check_spectral(cfg: dict, res: dict) -> Optional[str]:
    xs, mats = _field(cfg)
    n = len(mats[0])
    cs = [_fr(c) for c in res["char_coeffs"]]
    disc = _fr(res["discriminant"])
    if len(cs) != n + 1:
        return f"{len(cs)} characteristic coefficients for n={n}"
    for z in Z0:
        numeric = linalgq.char_coeffs(_lax_at(xs, mats, z))
        if [_horner(c, z) for c in cs] != numeric:
            return f"characteristic coefficients differ at z={z}"
        if _horner(disc, z) != polyq.discriminant(numeric):
            return f"discriminant differs at z={z}"
    branch = max(len(disc) - 1, 0)
    if res["branch_count"] != branch:
        return "branch_count is not the discriminant degree"
    genus = branch // 2 - n + 1 if res["is_squarefree"] and branch % 2 == 0 else None
    if res["genus"] != genus:
        return "genus disagrees with the branch count"
    return None


def check_hitchin(cfg: dict, res: dict) -> Optional[str]:
    xs, mats = _field(cfg)
    n, s = len(mats[0]), len(xs)
    start = 1 if cfg["group"]["form"] == "GL" else 2
    degrees = list(range(start, n + 1))
    if res["degrees"] != degrees:
        return f"degrees {res['degrees']} != {degrees}"
    if res["ambient_dims"] != [i * (s - 2) + 1 for i in degrees]:
        return "ambient dimensions are not i(s-2)+1"
    for z in Z0:
        inv = linalgq.invariant_values(_lax_at(xs, mats, z))
        for i, sec in zip(degrees, res["sections"]):
            sec = _fr(sec)
            if len(sec) - 1 > i * (s - 2):
                return f"section {i} has degree {len(sec) - 1} > {i * (s - 2)}"
            if _horner(sec, z) != inv[i - 1]:
                return f"section {i} differs from the invariant at z={z}"
    return None


def check_diagram(cfg: dict, res: dict) -> Optional[str]:
    n, s = cfg["group"]["rank"] + 1, len(cfg["points"])
    per_point = n if cfg["group"]["form"] == "GL" else n - 1
    if len(res["rows"]) != s * per_point:
        return f"{len(res['rows'])} rows, expected {s * per_point}"
    if res["all_equal"] is not True or not all(r["equal"] for r in res["rows"]):
        return "the two routes disagree"
    return None


def check_involution(cfg: dict, res: dict) -> Optional[str]:
    k = res["hamiltonian_count"]
    if res.get("hamiltonians", "gaudin") == "gaudin" and k != len(cfg["points"]):
        return f"{k} Gaudin Hamiltonians for {len(cfg['points'])} points"
    if res["pair_count"] != k * (k - 1) // 2:
        return f"pair_count {res['pair_count']} for {k} Hamiltonians"
    if res["all_commute"] is not True or res["nonzero_pairs"]:
        return "some pair fails to commute"
    return None


def check_gaudin(cfg: dict, res: dict) -> Optional[str]:
    xs, mats = _field(cfg)
    n, s = len(mats[0]), len(xs)
    expected = []
    for j in range(s):
        acc = Fraction(0)
        for k in range(s):
            if k != j:
                tr = sum(mats[j][p][q] * mats[k][q][p] for p in range(n) for q in range(n))
                acc += tr / (xs[j] - xs[k])
        expected.append(acc)
    if _fr(res["values"]) != expected:
        return "values differ from sum tr(X_j X_k)/(x_j - x_k)"
    if res["value_sum"] != "0":
        return f"value_sum is {res['value_sum']}"
    if res["hamiltonian_count"] != s or res["generator_count"] != s * n * n:
        return "Hamiltonian or generator count is wrong"
    return None


def check_stability(cfg: dict, res: dict) -> Optional[str]:
    for row in res["reductions"]:
        sub, total = Fraction(row["sub_slope"]), Fraction(row["total_slope"])
        if row["slope_verdict"] != _sign_verdict(sub, total):
            return "reduction slope verdict disagrees with its slopes"
        margin = Fraction(row["character_margin"])
        if row["character_verdict"] != _sign_verdict(-margin, Fraction(0)):
            return "reduction character verdict disagrees with its margin"
    r2 = res["rank2"]
    cands = r2["candidates"]
    first = min(
        cands,
        key=lambda c: (-Fraction(c["weighted_degree"]), -c["degree"], c["incidences"]),
    )
    if r2["witness"] != first or cands[0] != first:
        return "witness is not the first candidate"
    slope = Fraction(r2["total_slope"])
    if r2["verdict"] != _sign_verdict(Fraction(first["weighted_degree"]), slope):
        return "verdict disagrees with witness against total_slope"
    return None


def check_moment(cfg: dict, res: dict) -> Optional[str]:
    sites = [[_fr(row) for row in m] for m in res["sites"]]
    if sites != _projected_sites(cfg):
        return "a site is not the residue projected onto its blocks"
    return None


def check_leaf(cfg: dict, res: dict) -> Optional[str]:
    bad = check_moment(cfg, res)
    if bad:
        return bad
    rank, dim = res["bivector_rank"], _site_dims(cfg)
    if rank % 2 or rank > dim:
        return f"bivector rank {rank} is odd or exceeds dimension {dim}"
    for site, invs in zip(res["sites"], res["site_invariants"]):
        if _fr(invs) != linalgq.invariant_values([_fr(row) for row in site]):
            return "site invariants differ from the site's invariant values"
    return None


def check_parahoric(cfg: dict, res: dict) -> Optional[str]:
    group = cfg["group"]
    cartan = rootsys.build_root_system(group["family"], group["rank"]).cartan_matrix
    for point, out in zip(cfg["points"], res["points"]):
        theta = _fr(point["theta"])
        if not out["jumps"]:
            return "no jumps reported"
        for key, jump in out["jumps"].items():
            root = [int(a) for a in key.split(",")]
            value = sum(
                c * cartan[i][j] * a
                for i, c in enumerate(theta)
                for j, a in enumerate(root)
            )
            if jump != math.ceil(-value):
                return f"jump {jump} at root {key} != ceil(-<theta, r>)"
    return None


CHECKS: Dict[str, Callable[[dict, dict], Optional[str]]] = {
    "spectral": check_spectral,
    "hitchin": check_hitchin,
    "diagram-check": check_diagram,
    "involution": check_involution,
    "gaudin": check_gaudin,
    "stability": check_stability,
    "moment": check_moment,
    "leaf": check_leaf,
    "parahoric-analyze": check_parahoric,
}


def sizes(command: str, cfg: dict, res: dict) -> Dict[str, int]:
    """Size counts read from one report (and its config)."""
    if command == "spectral":
        disc = _fr(res["discriminant"])
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in disc),
            default=0,
        )
        return {
            "higgs.spectral_curve.disc_degree_max": len(disc) - 1,
            "higgs.spectral_curve.disc_bits_max": bits,
        }
    if command == "stability":
        return {"parahoric.rank2_semistability.candidates": len(res["rank2"]["candidates"])}
    if command == "leaf":
        return {"poisson.bivector_rank_at.dim_max": _site_dims(cfg)}
    return {}
