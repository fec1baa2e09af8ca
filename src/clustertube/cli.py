"""Command-line surface.

Exit codes: 0 success, 1 a verification check failed (a mathematical
claim was falsified), 2 usage or input error, or output that cannot be
written (an ``--out`` path, or a standard output its reader closed).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import StructuralError, TheoremViolationError
from .tube import TubeObject, check_rank, ext_dim_cluster, hom_dim_cluster, hom_dim_tube

# Each command imports the layers it runs, so a cold query compiles only
# those: hom needs tube alone; polygon, bmatrix and mutate read one object
# off the model layer, rigid_model and polygon_model, and build no search
# or graph; and verify loads only its suite's module and layers, so only
# --suite all loads every module.  _read_argv reads a well-formed argv
# from COMMANDS, so argparse is imported only to print help or an error,
# or to read an argv in another form; json only by enumerate and
# exchange-graph, as hom and polygon write their ints with an f-string.

# Largest --rank of the commands whose output grows as C(2n-2, n-1), the
# number of maximal rigid objects; at rank 10, exchange-graph --format
# dot takes 1.3-1.8 s and 36 MB peak RSS on a 2-vCPU host (json, the one
# export that reads every node's rows, 2.5-3.2 s and 28.5 MB).
RANK_CEILING = 10

# Largest --rank of the commands that read one object, which cost about
# what rigid_table does, O(n^4): 0.08 s at rank 40 and 0.30 s at rank 60
# on a 2-vCPU host (0.12-0.15 s at rank 40 on another).  hom is O(1), and
# verify keeps its own range, 2..13 for every suite.
POINT_CEILING = 40


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
    x = parse_object(args.src, args.rank)
    y = parse_object(args.dst, args.rank)
    # json.dumps of an int, or of a list of int lists, is its str
    tube, cluster, ext = hom_dim_tube(x, y), hom_dim_cluster(x, y), ext_dim_cluster(x, y)
    print(f'{{"tube": {tube}, "cluster": {cluster}, "ext": {ext}}}', file=out)
    return 0


def cmd_enumerate(args, out) -> int:
    import json

    from .rigid import maximal_rigid_masks
    from .rigid_model import rigid_table

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
    from .rigid_model import rigid_table

    table = rigid_table(graph.n)
    # the edges and order are expanded on first read: before the objects
    # are built, so that the expansion's scratch space is free by then
    popped = {i: pos for pos, i in enumerate(graph.order)}
    objects = [table.objects_of(mask) for mask in graph.nodes]
    out.write("graph exchange {\n")
    for i, summands in enumerate(objects):
        out.write(f'  n{i} [label="{_fmt_objects(summands)}"];\n')
    # each edge once, in search order, from the end popped first
    d = graph.n - 1
    for i in graph.order:
        for k, j in enumerate(graph.edges[i * d : i * d + d]):
            if popped[i] < popped[j]:
                out.write(f'  n{i} -- n{j} [label="{_fmt_object(objects[i][k])}"];\n')
    out.write("}\n")


def _graph_json(graph, out) -> None:
    # one json.dumps per node streams the text through the C encoder;
    # json.dump would stream it through the slower pure-Python one
    import json

    from .rigid_model import rigid_table

    table = rigid_table(graph.n)
    edges = graph.edges  # expanded before the rows are built, as in _graph_dot
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
        block = edges[i * d : i * d + d]
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
    from .polygon_model import local_matrix
    from .rigid_model import ExchangeMatrix, MaximalRigid, cartan_counterpart

    t = MaximalRigid(args.rank, parse_object_list(args.object, args.rank))
    mat = ExchangeMatrix(t.summands, local_matrix(t))
    _print_matrix(mat.order, mat.entries, out)
    if args.cartan:
        print("cartan:", file=out)
        for row in cartan_counterpart(mat):
            print(" ".join(str(v) for v in row), file=out)
    return 0


def cmd_mutate(args, out) -> int:
    from .polygon_model import local_matrix
    from .rigid_model import MaximalRigid, _mutate_rows, exchange

    t = MaximalRigid(args.rank, parse_object_list(args.object, args.rank))
    at = parse_object(args.at, args.rank)
    if at not in t.summands:
        raise StructuralError(f"{_fmt_object(at)} is not a summand of the object")
    k = t.summands.index(at)
    t2, p = exchange(t, k)
    # the second route: mutation at k of the object's own local matrix,
    # the new summand at its canonical position p
    mutated, rows = _mutate_rows(local_matrix(t), k, p), local_matrix(t2)
    if mutated != rows:
        raise TheoremViolationError(
            f"mutation at {_fmt_object(at)} of the local matrix of {t} is not the "
            f"local matrix of {t2}: {mutated} vs {rows}"
        )
    print(f"object: {_fmt_objects(t2.summands)}", file=out)
    _print_matrix(t2.summands, rows, out)
    return 0


def cmd_polygon(args, out) -> int:
    from .polygon_model import triangulation_of
    from .rigid_model import MaximalRigid

    t = MaximalRigid(args.rank, parse_object_list(args.object, args.rank))
    pairs = [[[d.p, d.q] for d in pair.diagonals] for pair in triangulation_of(t).sorted_pairs()]
    print(f'{{"rank": {args.rank}, "pairs": {pairs}}}', file=out)
    return 0


def cmd_verify(args, out) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, args.rank)
    for line in report.lines():
        print(line, file=out)
    return report.exit_code


# One row per command: its function, the largest --rank it takes (None:
# no bound), its help and its options after --rank.  An option is its
# flag and argparse's keywords for it, which _read_argv reads too (so
# --cartan spells out store_true's default).
_RANK = ("--rank", dict(type=int, required=True, help="tube rank n >= 2"))
_OBJECT = ("--object", dict(required=True, metavar="A,B;A,B;..."))
COMMANDS = {
    "hom": (cmd_hom, None, "Hom/Ext dimensions between two indecomposables", (
        ("--from", dict(dest="src", required=True, metavar="A,B")),
        ("--to", dict(dest="dst", required=True, metavar="A,B")),
    )),
    "enumerate": (cmd_enumerate, RANK_CEILING, "list all maximal rigid objects", (
        ("--format", dict(choices=("json", "table"), default="json")),
    )),
    "exchange-graph": (cmd_exchange_graph, RANK_CEILING, "export the exchange graph", (
        ("--format", dict(choices=("dot", "json"), default="dot")),
        ("--out", dict(default=None, help="output path (stdout if omitted)")),
    )),
    "bmatrix": (cmd_bmatrix, POINT_CEILING, "B-matrix of a maximal rigid object", (
        _OBJECT,
        ("--cartan", dict(action="store_true", default=False,
                          help="also print the Cartan counterpart")),
    )),
    "mutate": (cmd_mutate, POINT_CEILING, "exchange a summand and mutate the matrix", (
        _OBJECT, ("--at", dict(required=True, metavar="A,B")),
    )),
    "polygon": (cmd_polygon, POINT_CEILING, "centrally symmetric triangulation of an object", (
        _OBJECT,
    )),
    # verify.SUITES, spelled out so that parsing compiles no verify code
    "verify": (cmd_verify, None, "run a verification suite", (
        ("--suite", dict(choices=("all", "hom", "counts", "mutation", "polygon", "no-ct"),
                         default="all")),
    )),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, which alone prints help and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="clustertube",
        description="Cluster-tube combinatorics and its type B polygon model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, ceiling, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kwargs in (_RANK, *options):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, ceiling=ceiling)
    return parser


def _read_argv(argv):
    """The namespace ``build_parser()`` would return for ``argv``, read
    from ``COMMANDS`` without argparse; None unless ``argv`` is the command
    and then each of its flags at most once, spelled out, with a value that
    does not start with "-" (bare for ``store_true``), every required flag
    given and every choice kept.  Any other argv is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, ceiling, _, options = COMMANDS[argv[0]]
    table, given = dict((_RANK, *options)), {}
    words = iter(argv[1:])
    for flag in words:
        kw = table.get(flag)
        if kw is None or flag in given:
            return None
        value = True
        if kw.get("action") != "store_true":
            value = next(words, "-")  # a missing value reads as a flag
            if value.startswith("-"):
                return None
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if value not in kw.get("choices", (value,)):
                return None
        given[flag] = value
    if any(kw.get("required") and flag not in given for flag, kw in table.items()):
        return None
    dests = {
        kw.get("dest") or flag[2:].replace("-", "_"): given.get(flag, kw.get("default"))
        for flag, kw in table.items()
    }
    return SimpleNamespace(command=argv[0], func=func, ceiling=ceiling, **dests)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or a usage error: argparse printed it
            return exc.code
    try:
        check_rank(args.rank)
        if args.ceiling is not None and args.rank > args.ceiling:
            raise ValueError(f"{args.command} supports ranks 2..{args.ceiling}, got {args.rank}")
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # here, where a closed pipe is caught, not at exit
        return code
    except BrokenPipeError as exc:
        # the exit flush would fail again: what is left goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
