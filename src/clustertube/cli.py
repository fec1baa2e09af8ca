"""Command-line surface.

Exit codes: 0 success, 1 a verification check failed (a mathematical
claim was falsified), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import StructuralError, TheoremViolationError
from .tube import TubeObject, check_rank, ext_dim_cluster, hom_dim_cluster, hom_dim_tube

# Each command imports the layers it runs, so a cold query compiles only
# those: hom needs tube alone, and only verify loads every module.  json
# is imported only by the commands that write it.

# Largest --rank of the commands that build a rank's tables or its whole
# exchange graph; at rank 10, exchange-graph --format dot takes 2.5-3.4 s
# and 44 MB peak RSS on a loaded 2-vCPU host (json 3.4-3.6 s, 32 MB). hom
# is O(1) and verify keeps its own range.
RANK_CEILING = 10


def parse_object(text: str, n: int) -> TubeObject:
    """Parse "a,b" (whitespace-insensitive)."""
    parts = [p.strip() for p in text.strip().split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return TubeObject(int(parts[0]), int(parts[1]), n)


def parse_object_list(text: str, n: int) -> tuple[TubeObject, ...]:
    """Parse "a1,b1;a2,b2;..."."""
    chunks = [c for c in (p.strip() for p in text.strip().split(";")) if c]
    return tuple(parse_object(c, n) for c in chunks)


def _fmt_object(x: TubeObject) -> str:
    return f"{x.a},{x.b}"


def _fmt_objects(xs) -> str:
    return ";".join(_fmt_object(x) for x in xs)


def _print_matrix(order, rows, out) -> None:
    print(f"order: {_fmt_objects(order)}", file=out)
    for row in rows:
        print(" ".join(str(v) for v in row), file=out)


def cmd_hom(args, out) -> int:
    import json

    x = parse_object(args.src, args.rank)
    y = parse_object(args.dst, args.rank)
    print(
        json.dumps(
            {
                "tube": hom_dim_tube(x, y),
                "cluster": hom_dim_cluster(x, y),
                "ext": ext_dim_cluster(x, y),
            }
        ),
        file=out,
    )
    return 0


def cmd_enumerate(args, out) -> int:
    import json

    from .rigid import maximal_rigid_masks, rigid_table

    table = rigid_table(args.rank)
    objects = [table.objects_of(mask) for mask in maximal_rigid_masks(args.rank)]
    if args.format == "json":
        payload = {
            "rank": args.rank,
            "objects": [[[x.a, x.b] for x in summands] for summands in objects],
        }
        print(json.dumps(payload), file=out)
    else:
        for summands in objects:
            print(_fmt_objects(summands), file=out)
    return 0


def _graph_dot(graph, out) -> None:
    from .rigid import rigid_table

    table = rigid_table(graph.n)
    objects = [table.objects_of(mask) for mask in graph.nodes]
    out.write("graph exchange {\n")
    for i, summands in enumerate(objects):
        out.write(f'  n{i} [label="{_fmt_objects(summands)}"];\n')
    # each edge once, in search order, from the end popped first
    d, popped = graph.n - 1, {i: pos for pos, i in enumerate(graph.order)}
    for i in graph.order:
        for k, j in enumerate(graph.edges[i * d : i * d + d]):
            if popped[i] < popped[j]:
                out.write(f'  n{i} -- n{j} [label="{_fmt_object(objects[i][k])}"];\n')
    out.write("}\n")


def _graph_json(graph, out) -> None:
    # one json.dumps per node streams the text through the C encoder;
    # json.dump would stream it through the slower pure-Python one
    import json

    from .rigid import rigid_table

    table = rigid_table(graph.n)
    out.write(f'{{"rank": {graph.n}, "nodes": [')
    sep = ""
    for mask, rows in zip(graph.nodes, graph.rows):
        # a node's matrix is indexed by its summands in canonical order
        summands = [[x.a, x.b] for x in table.objects_of(mask)]
        node = {
            "object": summands,
            "order": summands,
            "matrix": [v for row in rows for v in row],
        }
        out.write(sep + json.dumps(node))
        sep = ", "
    # (i, k, j) in array order, which is sorted, one node's block at a time
    d, sep = graph.n - 1, ""
    out.write('], "edges": [')
    for i in range(len(graph.nodes)):
        block = graph.edges[i * d : i * d + d]
        out.write(sep + ", ".join(f"[{i}, {k}, {j}]" for k, j in enumerate(block)))
        sep = ", "
    out.write("]}\n")


def cmd_exchange_graph(args, out) -> int:
    from .mutation import build_exchange_graph

    graph = build_exchange_graph(args.rank)
    write = _graph_dot if args.format == "dot" else _graph_json
    if args.out is None:
        write(graph, out)
    else:
        try:
            with open(args.out, "w") as fh:
                write(graph, fh)
        except OSError as exc:
            raise StructuralError(f"cannot write {args.out}: {exc}") from exc
    return 0


def cmd_bmatrix(args, out) -> int:
    from .mutation import build_exchange_graph, cartan_counterpart
    from .rigid import MaximalRigid

    t = MaximalRigid(args.rank, parse_object_list(args.object, args.rank))
    mat = build_exchange_graph(args.rank).b_matrix(t)
    _print_matrix(mat.order, mat.entries, out)
    if args.cartan:
        print("cartan:", file=out)
        for row in cartan_counterpart(mat):
            print(" ".join(str(v) for v in row), file=out)
    return 0


def cmd_mutate(args, out) -> int:
    from .mutation import build_exchange_graph, exchange
    from .rigid import MaximalRigid

    t = MaximalRigid(args.rank, parse_object_list(args.object, args.rank))
    at = parse_object(args.at, args.rank)
    if at not in t.summands:
        raise StructuralError(f"{_fmt_object(at)} is not a summand of the object")
    graph = build_exchange_graph(args.rank)
    t2, _ = exchange(t, t.summands.index(at))
    mat2 = graph.b_matrix(t2)
    print(f"object: {_fmt_objects(t2.summands)}", file=out)
    _print_matrix(mat2.order, mat2.entries, out)
    return 0


def cmd_polygon(args, out) -> int:
    import json

    from .polygon import triangulation_of
    from .rigid import MaximalRigid

    t = MaximalRigid(args.rank, parse_object_list(args.object, args.rank))
    tri = triangulation_of(t)
    payload = {
        "rank": args.rank,
        "pairs": [
            [[d.p, d.q] for d in pair.diagonals] for pair in tri.sorted_pairs()
        ],
    }
    print(json.dumps(payload), file=out)
    return 0


def cmd_verify(args, out) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, args.rank)
    for line in report.lines():
        print(line, file=out)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustertube",
        description="Cluster-tube combinatorics and its type B polygon model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, bounded=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--rank", type=int, required=True, help="tube rank n >= 2")
        p.set_defaults(func=func, bounded=bounded)
        return p

    p = add(
        "hom", cmd_hom, bounded=False,
        help="Hom/Ext dimensions between two indecomposables",
    )
    p.add_argument("--from", dest="src", required=True, metavar="A,B")
    p.add_argument("--to", dest="dst", required=True, metavar="A,B")

    p = add("enumerate", cmd_enumerate, help="list all maximal rigid objects")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = add("exchange-graph", cmd_exchange_graph, help="export the exchange graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")

    p = add("bmatrix", cmd_bmatrix, help="B-matrix of a maximal rigid object")
    p.add_argument("--object", required=True, metavar="A,B;A,B;...")
    p.add_argument("--cartan", action="store_true", help="also print the Cartan counterpart")

    p = add("mutate", cmd_mutate, help="exchange a summand and mutate the matrix")
    p.add_argument("--object", required=True, metavar="A,B;A,B;...")
    p.add_argument("--at", required=True, metavar="A,B")

    p = add("polygon", cmd_polygon, help="centrally symmetric triangulation of an object")
    p.add_argument("--object", required=True, metavar="A,B;A,B;...")

    p = add("verify", cmd_verify, bounded=False, help="run a verification suite")
    # verify.SUITES, spelled out so that parsing compiles no verify code
    p.add_argument(
        "--suite",
        choices=("all", "hom", "counts", "mutation", "polygon", "no-ct"),
        default="all",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_rank(args.rank)
        if args.bounded and args.rank > RANK_CEILING:
            raise ValueError(
                f"{args.command} supports ranks 2..{RANK_CEILING}, got {args.rank}"
            )
        return args.func(args, sys.stdout)
    except TheoremViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
