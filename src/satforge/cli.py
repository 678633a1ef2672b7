"""Command-line front door: construct | check | search | audit | table.

Exit codes: 0 success, 1 verdict failure (or stdout closed by its reader),
2 usage error, 3 budget exhausted.  Only `main` turns the library's typed
input errors into `error: ...` on stderr and exit 2; the commands let them
rise.
All charge output is exact `p/q`; bound tables are integers.

The result files are the command line's: `search` writes its graphs to
`result_path(n, k)` under `--out` (by default `RESULTS_DIR`), and `table`
reads its exact column from there without loading the search.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .construction import (
    ConstructionError,
    build_construction,
    lower_bound_edges,
    upper_bound_edges,
)
from .graph import Graph6Error, GraphError, read_graph6_file, to_graph6, write_graph6_file
from .saturation import PreconditionError, check_saturated

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

RESULTS_DIR = Path("search-results")  # relative to the working directory


class InputError(ValueError):
    """Command-line input that no command can use: a graph file with no
    records, or an unknown stage name."""


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected A..B")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected integer endpoints")
    if a < 1:
        raise argparse.ArgumentTypeError("range must start at n >= 1")
    if a > b:
        raise argparse.ArgumentTypeError("empty range")
    return range(a, b + 1)


def build_parser():
    p = argparse.ArgumentParser(
        prog="satforge",
        description="Cycle-saturation toolkit: construction, certificates, "
        "exhaustive search, and the discharging audit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build the extremal family member")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out", type=Path, default=None, help="graph6 output file")

    c = sub.add_parser("check", help="certify C_k-saturation of graph6 input")
    c.add_argument("file", type=Path)
    c.add_argument("--k", type=int, default=6)

    c = sub.add_parser("search", help="exhaustive minimum-saturation search")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, default=6)
    c.add_argument("--out", type=Path, default=None, help="result directory")
    c.add_argument("--budget-nodes", type=int, default=None)
    c.add_argument("--budget-secs", type=float, default=None)

    c = sub.add_parser("audit", help="discharging audit of graph6 input")
    c.add_argument("file", type=Path)
    c.add_argument("--dump-stages", default=None,
                   help="comma-separated stage names, e.g. g,g5,f7")
    c.add_argument("--strict-levels", action="store_true",
                   help="fail when any rule diagnostic fires")

    c = sub.add_parser("table", help="bounds table over a range of n")
    c.add_argument("--n-range", type=_parse_range, required=True)
    return p


def cmd_construct(args):
    g, spec = build_construction(args.n)
    bound = upper_bound_edges(args.n)
    ok = g.edge_count == bound
    record = to_graph6(g)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(record + "\n")
    else:
        print(record)
    print(f"n={args.n} epsilon={spec.epsilon} edges={g.edge_count} "
          f"bound={bound} {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_VERDICT


def _read_graphs(path):
    """The graph6 records in `path`; raises InputError when there are none."""
    graphs = read_graph6_file(path)
    if not graphs:
        raise InputError("no graphs in input")
    return graphs


def cmd_check(args):
    all_ok = True
    for i, g in enumerate(_read_graphs(args.file)):
        rep = check_saturated(g, args.k)
        line = f"graph {i}: n={g.n} m={g.edge_count} verdict={rep.verdict}"
        if rep.verdict == "not-free":
            line += " cycle=" + "-".join(map(str, rep.free_violation.vertices))
        elif rep.verdict == "missing-witness":
            line += f" non-edge={rep.missing[0]}-{rep.missing[1]}"
        print(line)
        all_ok &= rep.saturated
    return EXIT_OK if all_ok else EXIT_VERDICT


def result_path(n: int, k: int, outdir=RESULTS_DIR) -> Path:
    """The file that holds the minimum C_k-saturated graphs on n vertices."""
    return Path(outdir) / f"sat_{n}_{k}.g6"


def save_result(result, outdir) -> Path:
    """Write the minimum graphs of a `search.SearchResult` to `result_path`
    under `outdir`."""
    path = result_path(result.n, result.k, outdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_graph6_file(path, result.graphs)
    return path


def summary_table(results) -> str:
    lines = [f"{'n':>4} {'k':>3} {'sat':>5} {'classes':>8} {'status':>18} {'nodes':>10}"]
    for r in results:
        sat = r.min_edges if r.min_edges is not None else "-"
        lines.append(
            f"{r.n:>4} {r.k:>3} {sat!s:>5} {len(r.graphs):>8} "
            f"{r.status:>18} {r.nodes:>10}"
        )
    return "\n".join(lines)


def cmd_search(args):
    from .search import check_search_args, enumerate_saturated

    out = RESULTS_DIR if args.out is None else args.out
    # bad arguments leave no directory behind, and an --out that cannot be
    # a directory fails here, not after the search
    check_search_args(args.n, args.k, args.budget_nodes, args.budget_secs)
    out.mkdir(parents=True, exist_ok=True)
    res = enumerate_saturated(args.n, args.k,
                              budget_nodes=args.budget_nodes,
                              budget_secs=args.budget_secs)
    if res.graphs:
        print(f"wrote {save_result(res, out)}")
    print(summary_table([res]))
    if res.status == "budget-exhausted":
        return EXIT_BUDGET
    print(f"sat={res.min_edges}")
    return EXIT_OK


def cmd_audit(args):
    from .discharging import STAGE1_NAMES, STAGE2_NAMES, audit, render_stage_table

    graphs = _read_graphs(args.file)
    stages = None
    if args.dump_stages:
        stages = [s.strip() for s in args.dump_stages.split(",") if s.strip()]
        bad = [s for s in stages if s not in STAGE1_NAMES + STAGE2_NAMES]
        if bad:
            raise InputError(f"unknown stages {bad}")
    all_ok = True
    for i, g in enumerate(graphs):
        try:
            a = audit(g)
        except GraphError as exc:
            print(f"graph {i}: audit error: {exc}")
            all_ok = False
            continue
        lo = lower_bound_edges(a.n)
        print(f"graph {i}: branch={a.branch} n={a.n} e={a.edges} "
              f"bound e>={lo}: {'pass' if a.passed else 'FAIL'}")
        if a.reduced_t2:
            print(f"  reduced {a.reduced_t2} triangle-pendant vertices first")
        for msg in a.failures:
            print(f"  failure: {msg}")
        for msg in a.diagnostics:
            print(f"  note: {msg}")
        if stages and a.ledger is not None:
            print(render_stage_table(a.ledger, stages))
        ok = a.passed and not (args.strict_levels and a.diagnostics)
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERDICT


def cmd_table(args):
    print(f"{'n':>4} {'lower':>6} {'upper':>6} {'edges':>6} {'sat':>5}")
    for n in args.n_range:
        try:
            upper = upper_bound_edges(n)
        except ConstructionError:
            upper = "-"
        try:
            edges = str(build_construction(n)[0].edge_count)
        except ConstructionError:
            edges = "-"
        exact = "-"
        path = result_path(n, 6)  # where `satforge search --n N` writes
        if path.exists():
            graphs = read_graph6_file(path)
            if graphs:
                exact = str(graphs[0].edge_count)
        print(f"{n:>4} {lower_bound_edges(n):>6} {upper!s:>6} {edges:>6} {exact:>5}")
    return EXIT_OK


def _usage_errors():
    """The typed input errors that `main` reports with exit 2. An except
    clause evaluates this only once an exception reaches it, so `search`
    is imported on that path alone."""
    from .search import SearchError

    return (InputError, Graph6Error, ConstructionError, SearchError,
            PreconditionError, OSError)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handler = {
        "construct": cmd_construct,
        "check": cmd_check,
        "search": cmd_search,
        "audit": cmd_audit,
        "table": cmd_table,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a reader that closed stdout shows up here
        return code
    except BrokenPipeError:
        # not a usage error: exit 1 with stdout pointed at devnull, so that
        # the flush at exit cannot fail again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
