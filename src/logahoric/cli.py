"""Batch front end: read a JSON experiment config, run one command against
the library, and emit a machine-readable report (and optionally a CSV).

All rational values cross the boundary as strings of the form "p/q" or an
integer literal, read by the library's one number reader linalgq.rational
with ConfigError as its error; no floating point is accepted or produced.
Reports are serialized with sorted keys so that identical configs give
identical bytes, except for the timing field, which golden comparisons
must exclude.

Exit codes: 0 success, 1 domain failure (reported as structured JSON),
2 unusable config or environment (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import __version__, higgs, linalgq, parahoric, poisson, polyq
from .errors import ConfigError, LogahoricError
from .higgs import LogHiggsField
from .parahoric import ReductionDatum
from .rootsys import GroupTag, RationalCocharacter, build_root_system

# ---------------------------------------------------------------------------
# Config parsing: rationals as strings, matrices as nested lists
# ---------------------------------------------------------------------------


def _rat(value, where: str):
    return linalgq.rational(value, where, ConfigError)


def _int(value, where: str) -> int:
    return linalgq.integer(value, where, ConfigError)


def _list(value, where: str, item=_rat, nonempty: bool = False) -> list:
    """item(v, where[i]) for each item v of the JSON list value."""
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{where} must be a {'nonempty ' if nonempty else ''}list")
    return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _point(entry, where: str) -> Tuple[Fraction, Optional[List[Fraction]]]:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object")
    x = _rat(entry.get("x"), f"{where}.x")
    theta = entry.get("theta")
    return x, None if theta is None else _list(theta, f"{where}.theta")


def _matrix(value, n: int, where: str) -> List[Tuple[int, int]]:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{where}: expected a {n}x{n} matrix")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{where}: row {i} must have {n} entries")
        out += linalgq.rationals(row, f"{where}[{i}]", ConfigError, linalgq.ratio)
    return out


def _pair(value, where: str, parse=_rat) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair")
    return parse(value[0], f"{where}[0]"), parse(value[1], f"{where}[1]")


def _str_field(mapping: dict, key: str, where: str) -> str:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key}: expected a string")
    return value


class ParsedConfig:
    def __init__(self, raw: dict, csv_path: Optional[str] = None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.csv_path = csv_path
        self.command: Optional[str] = raw.get("command")
        if self.command is not None and not isinstance(self.command, str):
            raise ConfigError("command must be a string")
        if self.command is not None and self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r} in config")
        self.options: dict = {} if raw.get("options") is None else raw["options"]
        if not isinstance(self.options, dict):
            raise ConfigError("options must be a JSON object")
        self.group = self._parse_group(raw.get("group"))
        self.points, self.thetas = self._parse_points(raw.get("points"))
        self.residues = self._parse_residues(raw.get("residues"))

    def _parse_group(self, raw) -> Optional[GroupTag]:
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ConfigError("group must be an object {family, rank, form}")
        family = _str_field(raw, "family", "group")
        rank = _int(raw.get("rank"), "group.rank")
        form = _str_field(raw, "form", "group")
        try:
            return GroupTag(family=family, rank=rank, form=form)
        except LogahoricError as exc:
            raise ConfigError(f"group: {exc}")

    def _parse_points(self, raw):
        if raw is None:
            return None, None
        points = _list(raw, "points", _point, nonempty=True)
        return [x for x, _ in points], [theta for _, theta in points]

    def _parse_residues(self, raw):
        if raw is None:
            return None
        # A residues value that is not a list is reported before a missing group.
        _list(raw, "residues", lambda m, where: m)
        if self.group is None:
            raise ConfigError("residues need a group to fix the matrix size")
        n = self.matrix_size()
        return _list(raw, "residues", lambda m, where: _matrix(m, n, where))

    # -- assembled library objects -------------------------------------

    def require_group(self) -> GroupTag:
        if self.group is None:
            raise ConfigError("this command needs a group section")
        return self.group

    def matrix_size(self) -> int:
        """The matrix size n of the group section, which must be present."""
        try:
            return self.group.matrix_size
        except LogahoricError as exc:
            raise ConfigError(f"group: {exc}")

    def require_points(self) -> List[Fraction]:
        if self.points is None:
            raise ConfigError("this command needs a points list")
        return self.points

    def theta_data(
        self, every_point: bool = False
    ) -> Optional[Tuple[Optional[RationalCocharacter], ...]]:
        """Each point's theta as a cocharacter (None where there is none),
        once each is checked to have group.rank coordinates; None when no
        point has one.  With every_point, a point with no theta is refused."""
        if not every_point and all(th is None for th in self.thetas):
            return None
        rank = self.require_group().rank
        for i, th in enumerate(self.thetas):
            if th is None:
                if every_point:
                    raise ConfigError(f"points[{i}] has no theta; parahoric-analyze needs one")
            elif len(th) != rank:
                raise ConfigError(f"points[{i}].theta must have {rank} coroot coordinates")
        return tuple(None if th is None else RationalCocharacter(tuple(th)) for th in self.thetas)

    def field(self) -> LogHiggsField:
        group = self.require_group()
        points = self.require_points()
        if self.residues is None:
            raise ConfigError("this command needs a residues list")
        return higgs.field_from_read(points, self.residues, group, self.theta_data())


# ---------------------------------------------------------------------------
# Payload helpers
# ---------------------------------------------------------------------------


def _root_key(root: Tuple[int, ...]) -> str:
    return ",".join(str(c) for c in root)


class _Candidates(NamedTuple):
    """A report leaf holding the rank-2 candidates, which _chunks writes
    with _candidate_list at the depth where it meets them."""

    items: Tuple[parahoric.Rank2Candidate, ...]


def _candidate_list(candidates, indent: str) -> str:
    """The rank-2 candidates' report list (never empty) as
    json.dumps(sort_keys=True, indent=2) writes it at nesting indent, in one
    join.  The incidence list is formatted once per distinct tuple, and the
    verdict and weighted degree once per shared Fraction, keyed by identity
    (the report keeps each one alive)."""
    item, key = indent + "  ", indent + "    "
    start = "{\n" + key + '"degree": '
    incidence_texts, tails, out, head = {}, {}, [], "[\n" + item + start
    for degree, incidences, wd, verdict in candidates:
        inc = incidence_texts.get(incidences)
        if inc is None:
            items = (",\n  " + key).join(map(str, incidences))
            inc = incidence_texts[incidences] = f"[\n  {key}{items}\n{key}]" if incidences else "[]"
        tail = tails.get(id(wd))
        if tail is None:
            tail = f'"verdict": {_escape(verdict)},\n{key}"weighted_degree": {_escape(str(wd))}'
            tails[id(wd)] = tail
        out.append(f'{head}{degree},\n{key}"incidences": {inc},\n{key}{tail}\n{item}}}')
        head = ",\n" + item + start
    out.append("\n" + indent + "]")
    return "".join(out)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_parahoric_analyze(cfg: ParsedConfig) -> dict:
    group = cfg.require_group()
    points = cfg.require_points()
    thetas = cfg.theta_data(every_point=True)
    # Built only once every theta is checked: it takes seconds at rank 100.
    rs = build_root_system(group.family, group.rank)
    out = []
    for x, theta in zip(points, thetas):
        datum = parahoric.analyze_weight(rs, theta)
        out.append(
            {
                "x": str(x),
                "theta": [str(c) for c in theta.coeffs],
                "facet": datum.facet_class,
                "jumps": {_root_key(r): m for r, m in datum.jumps.items()},
                "levi_roots": [_root_key(r) for r in datum.levi_roots],
                "plus_levels": {
                    _root_key(r): m for r, m in datum.plus_grading.items()
                },
            }
        )
    return {"family": group.family, "rank": group.rank, "points": out}


def _cmd_gaudin(cfg: ParsedConfig) -> dict:
    """The Hamiltonians as numbers; their counts come from the field's
    shape (one per point, n^2 coordinates per point), so nothing symbolic
    is built."""
    f = cfg.field()
    values = higgs.gaudin_values(f)
    return {
        "values": [str(v) for v in values],
        "value_sum": str(sum(values, Fraction(0))),
        "hamiltonian_count": len(values),
        "generator_count": f.matrix_size ** 2 * f.site_count,
    }


def _cmd_hitchin(cfg: ParsedConfig) -> dict:
    image = higgs.hitchin_map(cfg.field())
    return {
        "degrees": list(image.degrees),
        "ambient_dims": list(image.ambient_dims),
        "sections": [list(map(str, sec)) for sec in image.sections],
    }


def _default_grid(s: int) -> List[int]:
    return list(range(-(s + 1), s + 2))


def _cmd_spectral(cfg: ParsedConfig) -> dict:
    f = cfg.field()
    sc = higgs.spectral_curve(f)
    results = {
        "char_coeffs": [list(map(str, cs)) for cs in sc.char_coeffs],
        "discriminant": list(map(str, sc.discriminant)),
        "branch_count": sc.branch_count,
        "is_squarefree": sc.is_squarefree,
        "genus": sc.genus,
    }
    path = cfg.csv_path or cfg.options.get("emit_csv")
    if path is not None:
        if not isinstance(path, str):
            raise ConfigError("options.emit_csv must be a path string")
        raw_grid = cfg.options.get("grid")
        if raw_grid is None:
            grid = _default_grid(f.site_count)
        else:
            grid = _list(raw_grid, "options.grid", nonempty=True)
        lines = ["z,disc"]
        for z in grid:
            lines.append(f"{z},{polyq.evaluate(sc.discriminant, z)}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        results["csv_path"] = path
        results["csv_rows"] = len(grid)
    return results


def _cmd_moment(cfg: ParsedConfig) -> dict:
    mv = poisson.moment_map(cfg.field())
    return {"sites": [[list(map(str, row)) for row in site] for site in mv.sites]}


def _cmd_involution(cfg: ParsedConfig) -> dict:
    which = cfg.options.get("hamiltonians", "gaudin")
    if which == "gaudin":
        alg, hams = higgs.gaudin_hamiltonians(cfg.field())
    elif which == "hitchin":
        form, points = cfg.require_group().form, cfg.require_points()
        alg, hams = poisson.hitchin_coefficient_hamiltonians(points, cfg.matrix_size(), form)
    else:
        raise ConfigError(
            f"options.hamiltonians must be 'gaudin' or 'hitchin', got {which!r}"
        )
    report = poisson.verify_involution(hams, alg)
    if report.all_commute:
        message = f"all {report.pair_count} pairs commute"
    else:
        message = f"{len(report.nonzero_pairs)} pairs fail to commute"
    return {
        "hamiltonians": which,
        "hamiltonian_count": len(hams),
        "pair_count": report.pair_count,
        "all_commute": report.all_commute,
        "nonzero_pairs": [{"i": i, "j": j, "bracket": b} for i, j, b in report.nonzero_pairs],
        "message": message,
    }


def _cmd_diagram_check(cfg: ParsedConfig) -> dict:
    report = higgs.quotient_diagram_check(cfg.field())
    return {
        "all_equal": report.all_equal,
        "rows": [
            {
                "point": r.point,
                "degree": r.degree,
                "residue_route": str(r.residue_route),
                "moment_route": str(r.moment_route),
                "equal": r.equal,
            }
            for r in report.rows
        ],
    }


def _reduction_test(entry, where: str) -> dict:
    """The slope and character tests of one options.reductions entry."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object")
    total_raw = entry.get("total_weight_pairings")  # absent or null: none
    rd = ReductionDatum(
        _int(entry.get("sub_degree"), f"{where}.sub_degree"),
        _int(entry.get("sub_rank"), f"{where}.sub_rank"),
        _int(entry.get("total_degree"), f"{where}.total_degree"),
        _int(entry.get("total_rank"), f"{where}.total_rank"),
        _list(entry.get("weight_pairings", []), f"{where}.weight_pairings"),
        () if total_raw is None else _list(total_raw, f"{where}.total_weight_pairings"),
    )
    verdict = parahoric.slope_test(rd)
    total_deg = rd.total_degree + sum(rd.total_pairings, Fraction(0))
    sub_deg = parahoric.parahoric_degree(rd)
    sub_side, total_side = sub_deg * rd.total_rank, total_deg * rd.sub_rank
    return {
        "sub_parhdeg": str(sub_deg),
        "total_parhdeg": str(total_deg),
        "sub_slope": str(sub_deg / rd.sub_rank),
        "total_slope": str(total_deg / rd.total_rank),
        "slope_verdict": verdict,
        "character_margin": str(total_side - sub_side),
        "character_verdict": parahoric.verdict(sub_side, total_side),
    }


def _cmd_stability(cfg: ParsedConfig) -> dict:
    reductions = cfg.options.get("reductions")
    rank2 = cfg.options.get("rank2")
    if reductions is None and rank2 is None:
        raise ConfigError("stability needs options.reductions or options.rank2")
    results: dict = {}
    if reductions is not None:
        results["reductions"] = _list(
            reductions, "options.reductions", _reduction_test, nonempty=True
        )
    if rank2 is not None:
        if not isinstance(rank2, dict):
            raise ConfigError("options.rank2 must be an object")
        if "split_degrees" not in rank2:
            raise ConfigError("options.rank2 needs split_degrees [a1, a2]")
        split = _pair(rank2["split_degrees"], "options.rank2.split_degrees", _int)
        parsed_flags = _list(rank2.get("flags", []), "options.rank2.flags", _pair)
        parsed_weights = _list(rank2.get("weights", []), "options.rank2.weights", _pair)
        pts = rank2.get("points")
        parsed_pts = cfg.points if pts is None else _list(pts, "options.rank2.points")
        report = parahoric.rank2_semistability(split, parsed_flags, parsed_weights, parsed_pts)
        witness = report.witness
        results["rank2"] = {
            "verdict": report.verdict,
            "total_weighted_degree": str(report.total_weighted_degree),
            "total_slope": str(report.total_slope),
            "witness": {**witness._asdict(), "weighted_degree": str(witness.weighted_degree)},
            "candidates": _Candidates(report.candidates),
        }
    return results


def _cmd_leaf(cfg: ParsedConfig) -> dict:
    mv = poisson.moment_map(cfg.field())
    leaf = poisson.leaf_invariants(mv)
    return {
        "site_invariants": [list(map(str, site)) for site in leaf.site_invariants],
        "bivector_rank": leaf.bivector_rank,
        "sites": [[list(map(str, row)) for row in site] for site in mv.sites],
    }


# The commands, in the order of the usage message.
COMMANDS = {
    "parahoric-analyze": _cmd_parahoric_analyze,
    "gaudin": _cmd_gaudin,
    "hitchin": _cmd_hitchin,
    "spectral": _cmd_spectral,
    "moment": _cmd_moment,
    "involution": _cmd_involution,
    "diagram-check": _cmd_diagram_check,
    "stability": _cmd_stability,
    "leaf": _cmd_leaf,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _chunks(value, indent: str, out: List[str]) -> None:
    """Append to out the text of json.dumps(value, sort_keys=True, indent=2)
    for value at nesting indent; dict keys must be strings.

    With indent set, json runs its pure-Python encoder.  Here strings and
    keys go through json's C escaper, containers are walked directly, and
    only other scalars (floats, bools, None) and empty containers reach
    json.dumps.  The caller joins out once, so no container's text is built
    and then copied into its parent's.  A _Candidates leaf is written by
    _candidate_list at this level.
    """
    if type(value) is str:
        out.append(_escape(value))
    elif type(value) is int:
        out.append(str(value))
    elif type(value) is _Candidates:
        out.append(_candidate_list(value.items, indent))
    elif isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(value, dict):
            head, close = "{\n" + inner, "\n" + indent + "}"
            for k in sorted(value):
                out.append(head + _escape(k) + ": ")
                _chunks(value[k], inner, out)
                head = sep
        else:
            head, close = "[\n" + inner, "\n" + indent + "]"
            for v in value:
                out.append(head)
                _chunks(v, inner, out)
                head = sep
        out.append(close)
    else:
        out.append(json.dumps(value))


def _json(value) -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), each
    _Candidates leaf standing for its list of candidate objects."""
    out: List[str] = []
    _chunks(value, "", out)
    return "".join(out)


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = _json(report)  # print writes the newline apart, so the text is not copied
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            print(text, file=handle)


def run(command: str, cfg: ParsedConfig) -> dict:
    """Dispatch one command against the parsed config; returns the report."""
    start = time.perf_counter()
    results = COMMANDS[command](cfg)
    return {
        "command": command,
        "version": __version__,
        "results": results,
        "timing_seconds": round(time.perf_counter() - start, 6),
    }


# Built once: building it costs several times what one parse does, and
# main is called in process once per operation.
_PARSER = argparse.ArgumentParser(
    prog="logahoric",
    description="Exact computations for parahoric weights and the "
    "logarithmic Hitchin system on the line.",
)
_PARSER.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
_PARSER.add_argument("command", choices=COMMANDS, help="command to run")
_PARSER.add_argument("--config", required=True, help="path to a JSON config file")
_PARSER.add_argument("--out", default=None, help="write the JSON report here")
_PARSER.add_argument("--csv", default=None, help="spectral only: write a z,disc CSV here")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except (ValueError, RecursionError) as exc:
            # Malformed JSON, bytes that are not UTF-8, an integer literal
            # past Python's digit limit, or nesting past the recursion limit.
            raise ConfigError(f"config is not valid JSON: {exc}")
        cfg = ParsedConfig(raw, args.csv)
        if cfg.command is not None and cfg.command != args.command:
            raise ConfigError(
                f"config file says command {cfg.command!r} but argv says {args.command!r}"
            )
        report, code = run(args.command, cfg), 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except LogahoricError as exc:
        error = {"kind": exc.kind, "message": str(exc)}
        report, code = {"command": args.command, "version": __version__, "error": error}, 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1

    try:
        _emit(report, args.out)
    except OSError as exc:
        sys.stderr.write(f"cannot write report: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
