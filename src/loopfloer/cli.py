"""Command-line surface: invariants, fillings, intervals, gluings, censuses.

Exit codes: 0 success, 1 domain error (with a machine-readable reason),
2 usage error.  Inputs are inline text, '@path' for a file holding the same
text, or '-' for standard input.  Loops use the word format of the loops
module, trees the line format of the plumbing module; slopes are 'p/q' with
'inf' for 1/0.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from .detection import SlopeSet, lspace_interval, stern_brocot_slopes
from .gluing import glue_is_lspace
from .loops import (
    Loop,
    WordError,
    format_loops,
    parse_loops,
    parse_word,
    rational_longitude,
    split_loops,
    word_in,
)
from .oracle import fill_oracle, pair_is_lspace
from .plumbing import (
    PipelineError,
    PlumbingTree,
    TreeError,
    cfd,
    hf_dim_closed,
    n_t_tree,
    parse_tree,
    plumbing_det,
)
from .twists import INFINITY, ZERO_SLOPE, FillingResult, Slope, ex, fill, twist


class DomainError(ValueError):
    pass


def _read_input(arg: str) -> str:
    """'@path' reads a file and '-' standard input; anything else is the
    text itself."""
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        try:
            with open(arg[1:]) as fh:
                return fh.read()
        except OSError as err:
            raise DomainError(f"cannot read {arg[1:]!r}: {err.strerror}") from None
    return arg


def _parse_loops_arg(arg: str) -> List[Loop]:
    try:
        return parse_loops(_read_input(arg))
    except WordError as err:
        raise DomainError(f"bad loop input: {err}") from None


def _parse_tree_arg(arg: str) -> PlumbingTree:
    try:
        return parse_tree(_read_input(arg))
    except TreeError as err:
        raise DomainError(f"bad tree input: {err}") from None


def _parse_slope(arg: str) -> Slope:
    try:
        return Slope.parse(arg)
    except ValueError as err:
        raise DomainError(f"bad slope {arg!r}: {err}") from None


def _emit(data: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _slope_set_json(s: SlopeSet) -> dict:
    out = {"kind": s.kind, "certified": s.certified}
    if s.a is not None:
        out["from"] = str(s.a)
    if s.b is not None:
        out["to"] = str(s.b)
    return out


def _filling_json(r: FillingResult) -> dict:
    return {
        "dim": r.dim,
        "chi_abs": r.chi_abs,
        "per_loop": [list(x) for x in r.per_loop],
        "is_lspace": r.is_lspace,
    }


def _check_filling(loops: List[Loop], slope: Slope, oracle: bool, what: str) -> FillingResult:
    """The fast filling; with oracle set, raise unless the pairing oracle
    gives the same counts."""
    res = fill(loops, slope)
    if oracle:
        ref = fill_oracle(loops, slope)
        if (ref.dim, ref.chi_abs, ref.is_lspace) != (res.dim, res.chi_abs, res.is_lspace):
            raise DomainError(f"oracle mismatch on {what}: fast {res} vs oracle {ref}")
    return res


def _cmd_cfd(args) -> None:
    tree = _parse_tree_arg(args.tree)
    try:
        loops = cfd(tree)
    except (PipelineError, TreeError) as err:
        raise DomainError(str(err)) from None
    if args.oracle:
        # no independent route recomputes a bordered invariant, but both
        # preferred fillings of the claimed loops must match the pairing
        for slope in (INFINITY, ZERO_SLOPE):
            _check_filling(loops, slope, True, f"the {slope} filling of the result")
    _emit({"loops": [str(l) for l in loops]}, format_loops(loops), args.format)


def _cmd_hf(args) -> None:
    tree = _parse_tree_arg(args.tree)
    try:
        dim, lspace = hf_dim_closed(tree)
    except (PipelineError, TreeError) as err:
        raise DomainError(str(err)) from None
    if args.oracle:
        # |chi| of the invariant is |H_1| = |det|, which shares no step with
        # the pipeline: dim >= |det| with the same parity, and equality
        # (when H_1 is finite) makes an L-space
        det = abs(plumbing_det(tree))
        if dim < det or (dim - det) % 2 or lspace != (dim == det != 0):
            raise DomainError(f"oracle mismatch: dim={dim} lspace={lspace} against |det|={det}")
    _emit(
        {"dim": dim, "is_lspace": lspace},
        f"dim={dim} lspace={'yes' if lspace else 'no'}",
        args.format,
    )


def _cmd_fill(args) -> None:
    loops = _parse_loops_arg(args.loops)
    res = _check_filling(loops, _parse_slope(args.slope), args.oracle, "the filling")
    _emit(_filling_json(res), str(res), args.format)


def _cmd_interval(args) -> None:
    loops = _parse_loops_arg(args.loops)
    try:
        s = lspace_interval(loops)
    except ValueError as err:
        raise DomainError(str(err)) from None
    if args.oracle:
        # membership must match the pairing at every slope of the depth-6
        # grid and at the rational longitude of each loop
        slopes = stern_brocot_slopes(6)
        longitudes = {rational_longitude(l) for l in loops} - {None}
        for slope in slopes + sorted(longitudes - set(slopes), key=str):
            if s.contains(slope) != fill_oracle(loops, slope).is_lspace:
                raise DomainError(f"oracle mismatch: {s} disagrees with the pairing at {slope}")
    _emit({"interval": _slope_set_json(s)}, str(s), args.format)


def _cmd_glue(args) -> None:
    a = _parse_loops_arg(args.loops_a)
    b = _parse_loops_arg(args.loops_b)
    try:
        ans = glue_is_lspace(a, b)
    except ValueError as err:
        raise DomainError(str(err)) from None
    if args.oracle:
        ref = pair_is_lspace(a, b)
        if ref != ans:
            raise DomainError(f"oracle mismatch: gluing {ans} vs pairing {ref}")
    _emit({"is_lspace": ans}, "yes" if ans else "no", args.format)


def _cmd_dualize(args) -> None:
    # rewrite each input word in the alphabet it was not given in
    out = []
    try:
        for part in split_loops(_read_input(args.loops)):
            w = parse_word(part)
            other = "standard" if w.star else "dual"
            out.append(word_in(Loop(w), other))
    except WordError as err:
        raise DomainError(str(err)) from None
    _emit(
        {"words": [str(w) for w in out]},
        " | ".join(f"({w})" for w in out),
        args.format,
    )


def _cmd_twist(args) -> None:
    loops = _parse_loops_arg(args.loops)
    for op in args.ops:
        if op == "ex":
            loops = [ex(l) for l in loops]
            continue
        if "^" in op:
            kind, _, power = op.partition("^")
            try:
                n = int(power)
            except ValueError:
                raise DomainError(f"bad power in twist operation {op!r}") from None
        else:
            kind, n = op, 1
        if kind not in ("tw", "du"):
            raise DomainError(f"unknown twist operation {op!r}")
        loops = [twist(l, kind, n) for l in loops]
    _emit({"loops": [str(l) for l in loops]}, format_loops(loops), args.format)


def _census_row(t: int, oracle: bool):
    loops = cfd(n_t_tree(t))
    res = _check_filling(loops, ZERO_SLOPE, oracle, f"census row t={t}")
    return {
        "t": t,
        "loops": [str(l) for l in loops],
        "longitude": str(rational_longitude(loops)),
        "dual_fill_dim": res.dim,
        "dual_fill_is_lspace": res.is_lspace,
    }


def _cmd_census(args) -> None:
    if args.family != "nt":
        raise DomainError(f"unknown census family {args.family!r}")
    lo, _, hi = args.range.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise DomainError(f"bad range {args.range!r}") from None
    if lo_i < 2 or hi_i < lo_i:
        raise DomainError(f"bad range {args.range!r}")
    rows = [_census_row(t, args.oracle) for t in range(lo_i, hi_i + 1)]
    if args.format == "json":
        print(json.dumps({"family": args.family, "rows": rows}, sort_keys=True))
    else:
        for row in rows:
            print(
                f"t={row['t']} longitude={row['longitude']} "
                f"dual_fill_dim={row['dual_fill_dim']} "
                f"lspace={'yes' if row['dual_fill_is_lspace'] else 'no'} "
                f"loops: {' | '.join(row['loops'])}"
            )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loopfloer", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="recompute every answer with the pairing oracle and fail on mismatch",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("cfd", help="bordered invariant of a plumbing tree")
    s.add_argument("tree")
    s.set_defaults(func=_cmd_cfd)

    s = sub.add_parser("hf", help="total dimension for a closed plumbing tree")
    s.add_argument("tree")
    s.set_defaults(func=_cmd_hf)

    s = sub.add_parser("fill", help="Dehn filling of loops at a slope")
    s.add_argument("loops")
    s.add_argument("slope")
    s.set_defaults(func=_cmd_fill)

    s = sub.add_parser("interval", help="the set of L-space slopes")
    s.add_argument("loops")
    s.set_defaults(func=_cmd_interval)

    s = sub.add_parser("glue", help="is the glued pairing an L-space?")
    s.add_argument("loops_a")
    s.add_argument("loops_b")
    s.set_defaults(func=_cmd_glue)

    s = sub.add_parser("dualize", help="rewrite loops in the other alphabet")
    s.add_argument("loops")
    s.set_defaults(func=_cmd_dualize)

    s = sub.add_parser("twist", help="apply tw^n / du^n / ex operations")
    s.add_argument("loops")
    s.add_argument("ops", nargs="+", metavar="op", help="tw^3 du^-2 ex ...")
    s.set_defaults(func=_cmd_twist)

    s = sub.add_parser("census", help="sweep a family of plumbing trees")
    s.add_argument("--family", required=True)
    s.add_argument("--range", required=True, help="like 2..6")
    s.set_defaults(func=_cmd_census)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # keep argparse from reading negative slopes like -2/3 or -inf as options
    argv = [" " + a if re.fullmatch(r"-(\d+(/\d+)?|inf|infty|oo)", a) else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        args.func(args)
    except DomainError as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1
    except OverflowError:
        # a subscript or twist power past sys.maxsize cannot size a list
        big = [n for a in argv for n in re.findall(r"\d+", a) if int(n) > sys.maxsize]
        what = ", ".join(big) or "a number the input leads to"
        print(json.dumps({"error": f"too large to compute with: {what}"}), file=sys.stderr)
        return 1
    except RecursionError:
        # the plumbing pipeline recurses once per vertex along a path
        print(json.dumps({"error": "too deep to compute with: the recursion limit was reached"}),
              file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
