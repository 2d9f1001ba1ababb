"""Command-line surface: spectrum, profile, check, scan, random, ms, walks.

Exit codes follow the scan contract everywhere: 0 means no binding
violation, 1 means some applicable check failed, 2 means an operational
error (bad flags, malformed input).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cliques, motzkin, spectra
from .graph import Graph, GraphError, from_graph6, named, random_gnp
from .inequalities import (
    CATALOGUE,
    Tolerances,
    check_all,
    load_weight_csv,
    weighted_edge_local_check,
)
from .scanner import (
    EnumerationSource,
    Graph6Source,
    RandomSource,
    ScanError,
    ScanOptions,
    extremal_search,
    random_experiment,
    scan,
)
from .util import round_floats


def _catalogue_help() -> str:
    lines = ["catalogue checks:"]
    for e in CATALOGUE:
        rid = f"{e.base}(r)" if e.walk else e.base
        lines.append(f"  {rid:28s} {e.kind:10s} {e.statement}")
    return "\n".join(lines)


def _print(obj, compact=False):
    obj = round_floats(obj)
    if compact:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _add_graph_flags(p: argparse.ArgumentParser):
    p.add_argument("--g6", metavar="STR", help="literal graph6 line")
    p.add_argument("--named", metavar="SPEC", help="named graph, e.g. petersen, complete:4, cmp:2,2,2")
    p.add_argument("--gnp", metavar="N,P", help="random G(n,p) draw")
    p.add_argument("--seed", type=int, default=0, help="seed for --gnp (default 0)")


def _resolve_graph(args) -> Graph:
    picked = [x for x in (args.g6, args.named, args.gnp) if x is not None]
    if len(picked) != 1:
        raise GraphError("exactly one of --g6 / --named / --gnp is required")
    if args.g6 is not None:
        return from_graph6(args.g6)
    if args.named is not None:
        return named(args.named)
    n_str, _, p_str = args.gnp.partition(",")
    return random_gnp(int(n_str), float(p_str), args.seed)


def _tol(args) -> Tolerances:
    return Tolerances(holds_rtol=args.tol) if args.tol is not None else Tolerances()


def cmd_spectrum(args) -> int:
    g = _resolve_graph(args)
    s = spectra.eigenvalues(g)
    _print({
        "n": g.n,
        "m": g.m,
        "eigenvalues": list(s.eigenvalues),
        "lambda1": s.lambda1,
        "lambda2": s.lambda2,
        "s_plus": s.s_plus,
        "s_minus": s.s_minus,
        "n_plus": s.n_plus,
        "n_minus": s.n_minus,
    })
    return 0


def cmd_profile(args) -> int:
    g = _resolve_graph(args)
    prof = cliques.clique_profile(g)
    preds = cliques.predicates(g)
    _print({
        "n": g.n,
        "m": g.m,
        "omega": prof.omega,
        "c_v": list(prof.c_v),
        "c_e": [[u, v, c] for (u, v), c in zip(g.edges, prof.c_e)],
        "t": prof.t,
        "tv": prof.tv,
        "exact": prof.exact,
        **preds,
    })
    return 0


def cmd_check(args) -> int:
    g = _resolve_graph(args)
    tol = _tol(args)
    if args.weights:
        with open(args.weights, encoding="ascii") as fh:
            weights = load_weight_csv(fh)
        results = [weighted_edge_local_check(g, weights, tol)]
    else:
        results = check_all(g, args.id or "all", tol=tol)
    _print([r.to_dict() for r in results])
    binding = any(r.applicable and not r.holds for r in results)
    return 1 if binding else 0


def _scan_source(args) -> EnumerationSource | Graph6Source:
    if (args.enumerate is None) == (args.g6 is None):
        raise ScanError(f"{args.command} needs exactly one of --enumerate N or --g6 FILE|-")
    if args.enumerate is not None:
        return EnumerationSource(args.enumerate)
    return Graph6Source(path=args.g6)


def cmd_scan(args) -> int:
    source = _scan_source(args)
    index_range = None
    if args.range:
        lo, _, hi = args.range.partition(":")
        index_range = (int(lo), int(hi))
    options = ScanOptions(
        connected_only=args.connected,
        stop_on_violation=args.stop_on_violation,
        top_k=args.top_k,
        tol=_tol(args),
        workers=args.workers,
        index_range=index_range,
        strict_parse=args.strict,
    )

    def stream(v):
        _print({"type": "violation", **v}, compact=True)

    report = scan(source, args.checks, options, on_violation=stream)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json_bytes().decode() + "\n")
    return 1 if report.binding_violations else 0


def cmd_random(args) -> int:
    n_str, _, p_str = args.gnp.partition(",")
    exp = random_experiment(
        n=int(n_str), p=float(p_str), trials=args.trials, seed=args.seed,
        time_budget_s=args.time_budget,
    )
    sys.stdout.write(exp.to_json_bytes().decode() + "\n")
    return 1 if any(exp.violations.values()) else 0


def cmd_ms(args) -> int:
    g = _resolve_graph(args)
    if args.scheme == "custom":
        if not args.weights:
            raise GraphError("custom scheme needs --weights CSV")
        with open(args.weights, encoding="ascii") as fh:
            scheme = motzkin.WeightScheme("custom", load_weight_csv(fh))
    else:
        scheme = motzkin.WeightScheme(args.scheme)
    x, val = motzkin.maximize_simplex(
        g, scheme, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    _print({"scheme": args.scheme, "value": val, "x": list(x)})
    return 0


def cmd_walks(args) -> int:
    g = _resolve_graph(args)
    table = spectra.walk_counts(g, args.r)
    _print({"r": table.r, "per_vertex": list(table.per_vertex), "total": table.total})
    return 0


def cmd_extremal(args) -> int:
    top = extremal_search(_scan_source(args), args.id, args.top_k,
                          ScanOptions(connected_only=args.connected))
    _print(top)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanlab",
        description="Spectral and clique-local inequality checks on graphs.",
        epilog=_catalogue_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and square energies")
    _add_graph_flags(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("profile", help="clique profile and predicates")
    _add_graph_flags(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "check", help="evaluate checks on one graph",
        epilog=_catalogue_help(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_graph_flags(p)
    p.add_argument("--id", help="check id or list (default: all)")
    p.add_argument("--weights", help="edge-weight CSV for the weighted check")
    p.add_argument("--tol", type=float, default=None, help="holds tolerance override")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "scan", help="run checks over an enumeration or graph6 stream",
        epilog=_catalogue_help(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--enumerate", type=int, metavar="N", help="all labeled graphs on N vertices")
    p.add_argument("--g6", metavar="FILE", help="graph6 file, or - for stdin")
    p.add_argument("--checks", default="all", help="id list | all | theorems | conjectures")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.add_argument("--stop-on-violation", action="store_true")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--range", metavar="LO:HI", help="enumeration index slice")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--strict", action="store_true", help="fail on malformed graph6 lines")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("random", help="G(n,p) spectral/clique experiment")
    p.add_argument("--gnp", metavar="N,P", required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(fn=cmd_random)

    p = sub.add_parser("ms", help="simplex quadratic-form maximization")
    _add_graph_flags(p)
    p.add_argument("--scheme", choices=motzkin.SCHEMES, default="classical")
    p.add_argument("--weights", help="edge-weight CSV for the custom scheme")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=10_000)
    p.set_defaults(fn=cmd_ms)

    p = sub.add_parser("walks", help="exact walk counts")
    _add_graph_flags(p)
    p.add_argument("--r", type=int, required=True, help="walk length in vertices")
    p.set_defaults(fn=cmd_walks)

    p = sub.add_parser("extremal", help="top-k minimum-slack graphs for one check")
    p.add_argument("--enumerate", type=int, metavar="N")
    p.add_argument("--g6", metavar="FILE")
    p.add_argument("--id", required=True)
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(fn=cmd_extremal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ScanError, KeyError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
