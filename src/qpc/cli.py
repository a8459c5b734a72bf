"""Command-line front end.

Subcommands: `construct` (hgp | lp | bp), `analyze`, `layout`, `verify`.
All runs are deterministic: identical inputs and seed produce identical
bytes.  Exit codes: 0 success, 1 parse or I/O failure, 2 precondition
violation (reported with its witness), 3 enumeration budget exceeded.
The environment variable QPC_BUDGET overrides the distance-enumeration
cap; a budget that is not a non-negative integer exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analysis, classical, render
from .errors import BudgetError, DimensionError, FormatError, PreconditionError
from .gf2 import BitMatrix
from .groups import parse_ring_matrix
from .products import balanced_product, css_from_matrices, hgp, lifted_product
from .tanner import (
    TannerGraph,
    has_fixed_edge,
    is_free,
    parse_action,
    parse_covering,
    parse_graph,
    quotient,
    verify_covering,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _load_pcm(path: str) -> BitMatrix:
    text = Path(path).read_text()
    if path.endswith(".alist"):
        return classical.parse_alist(text)
    return classical.parse_pcm_text(text)


def _budget(option: int) -> int:
    """--budget when non-zero, else QPC_BUDGET when set, else the default."""
    name, raw = "--budget", str(option)
    if not option:
        name, raw = "QPC_BUDGET", os.environ.get("QPC_BUDGET")
    if not raw:
        return analysis.DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise FormatError(f"{name} must be a non-negative integer, got {raw!r}")
    return budget


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit_code_files(code, prefix: str) -> list[str]:
    base = Path(prefix)
    written = []
    for name, matrix in (("hx", code.h_x), ("hz", code.h_z)):
        for suffix, emitter in (
            (".pcm", classical.emit_pcm_text),
            (".alist", classical.emit_alist),
        ):
            path = base.parent / f"{base.name}.{name}{suffix}"
            _write(path, emitter(matrix))
            written.append(str(path))
    layout_path = base.parent / f"{base.name}.layout.json"
    _write(layout_path, render.emit(code.layout, render.RenderSpec(), (), "json"))
    written.append(str(layout_path))
    return written


def _report(args, payload: dict) -> None:
    for key, value in payload.items():
        print(f"{key}: {value}")
    if getattr(args, "json_out", None):
        _write(Path(args.json_out), json.dumps(payload, indent=2) + "\n")


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise FormatError(
            f"{args.product if hasattr(args, 'product') else args.what}:"
            f" missing required option(s) --{', --'.join(missing)}"
        )


def cmd_construct(args) -> int:
    if args.product == "hgp":
        _require(args, ["c1", "c2"])
        c1 = classical.ClassicalCode(_load_pcm(args.c1))
        c2 = classical.ClassicalCode(_load_pcm(args.c2))
        code = hgp(c1, c2)
    elif args.product == "lp":
        _require(args, ["m1", "m2"])
        m1 = parse_ring_matrix(Path(args.m1).read_text())
        m2 = parse_ring_matrix(Path(args.m2).read_text())
        code = lifted_product(m1, m2)
    else:
        _require(args, ["graph-a", "graph-b", "action-a", "action-b"])
        graph_a = parse_graph(Path(args.graph_a).read_text())
        graph_b = parse_graph(Path(args.graph_b).read_text())
        if not isinstance(graph_a, TannerGraph) or not isinstance(graph_b, TannerGraph):
            raise FormatError("balanced products need Tanner graphs, not plain graphs")
        act_a = parse_action(Path(args.action_a).read_text(), graph_a)
        act_b = parse_action(Path(args.action_b).read_text(), graph_b)
        code = balanced_product(graph_a, graph_b, act_a, act_b)
    files = _emit_code_files(code, args.out_prefix)
    _report(
        args,
        {
            "seed": args.seed,
            "kind": code.provenance.get("kind"),
            "n": code.n,
            "m_x": code.m_x,
            "m_z": code.m_z,
            "commuting": code.commuting,
            "files": " ".join(files),
        },
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    budget = _budget(args.budget)
    h_x = _load_pcm(args.hx)
    h_z = _load_pcm(args.hz)
    n = h_x.cols
    code = css_from_matrices(h_x, h_z)
    payload: dict = {"seed": args.seed, "n": n}
    payload["commuting"] = code.commuting
    if not code.commuting:
        _, pairs = analysis.check_commutation(code)
        payload["anticommuting_pairs"] = pairs[:10]
        payload["k"] = "refused (non-commuting checks)"
        payload["d"] = "refused (non-commuting checks)"
        _report(args, payload)
        return EXIT_OK
    k = analysis.logical_count(code)
    payload["k"] = k
    if k == 0:
        payload["d"] = "none (k = 0)"
    else:
        try:
            d_x, d_z, d = analysis.css_distance(code, budget)
            payload["d_x"] = d_x
            payload["d_z"] = d_z
            payload["d"] = d
            payload["params"] = f"[[{n},{k},{d}]]"
        except BudgetError as exc:
            payload["d"] = f"budget exceeded ({exc.required_text} > {exc.limit})"
            _report(args, payload)
            return EXIT_BUDGET
    if args.c1 and args.c2:
        c1 = classical.ClassicalCode(_load_pcm(args.c1))
        c2 = classical.ClassicalCode(_load_pcm(args.c2))
        formula = analysis.hgp_k_formula(c1, c2)
        payload["hgp_k_formula"] = formula
        payload["hgp_k_matches"] = formula == k
        bound = analysis.hgp_distance_bound(c1, c2)
        payload["hgp_distance_bound"] = bound
    _report(args, payload)
    return EXIT_OK


def cmd_layout(args) -> int:
    if bool(args.input) == bool(args.graph):
        raise FormatError("layout needs exactly one of --input or --graph")
    if args.graph:
        graph = parse_graph(Path(args.graph).read_text())
        table, overlays = render.line_layout_table(graph), ()
    else:
        table, overlays = render.parse_layout(Path(args.input).read_text())
    if args.overlay:
        overlays = overlays + (render.parse_overlay(Path(args.overlay).read_text()),)
    projection = None
    if table.kind == "3d":
        projection = render.Oblique(x_shear=args.shear, y_scale=args.yscale)
    include_edges = args.edges or (args.format == "json" and bool(table.edges))
    spec = render.RenderSpec(
        projection=projection,
        scale=args.scale,
        include_edges=include_edges,
    )
    doc = render.emit(table, spec, overlays, args.format)
    if args.out:
        _write(Path(args.out), doc)
        print(f"wrote: {args.out}")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.what == "covering":
        _require(args, ["cover", "base", "map"])
        cover = parse_graph(Path(args.cover).read_text())
        base = parse_graph(Path(args.base).read_text())
        cm = parse_covering(Path(args.map).read_text(), cover, base)
        report = verify_covering(cm)
        payload = {
            "check": "covering",
            "valid": report.valid,
            "lift_size": report.lift_size,
            "violations": report.violations,
        }
        _report(args, payload)
        return EXIT_OK if report.valid else EXIT_PRECONDITION
    _require(args, ["graph", "action"])
    graph = parse_graph(Path(args.graph).read_text())
    action = parse_action(Path(args.action).read_text(), graph)
    free, free_witness = is_free(action)
    pinned, pin_witness = has_fixed_edge(action)
    q, layout = quotient(graph, action)
    payload = {
        "check": "action",
        "valid": True,
        "free": free,
        "free_witness": free_witness,
        "fixed_edge": pinned,
        "fixed_edge_witness": pin_witness,
        "vertex_classes": len(layout.classes),
        "edge_classes": q.edge_count(),
    }
    _report(args, payload)
    ok = free and not pinned
    if args.lenient:
        return EXIT_OK
    return EXIT_OK if ok else EXIT_PRECONDITION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpc",
        description="Construct and verify quantum CSS product codes.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports (default 0)")
    parser.add_argument("--json-out", help="also write the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a product code")
    construct.add_argument("product", choices=["hgp", "lp", "bp"])
    construct.add_argument("--c1", help="first classical PCM (hgp)")
    construct.add_argument("--c2", help="second classical PCM (hgp)")
    construct.add_argument("--m1", help="first ring matrix (lp)")
    construct.add_argument("--m2", help="second ring matrix (lp)")
    construct.add_argument("--graph-a", help="first Tanner graph (bp)")
    construct.add_argument("--graph-b", help="second Tanner graph (bp)")
    construct.add_argument("--action-a", help="action on the first graph (bp)")
    construct.add_argument("--action-b", help="action on the second graph (bp)")
    construct.add_argument("--out-prefix", required=True)
    construct.set_defaults(func=cmd_construct)

    analyze = sub.add_parser("analyze", help="report code parameters")
    analyze.add_argument("--hx", required=True)
    analyze.add_argument("--hz", required=True)
    analyze.add_argument("--budget", type=int, default=0,
                         help="distance enumeration cap; 0 means the default"
                              " (QPC_BUDGET, else 2^24)")
    analyze.add_argument("--c1", help="classical input for the HGP cross-check")
    analyze.add_argument("--c2", help="classical input for the HGP cross-check")
    analyze.set_defaults(func=cmd_analyze)

    layout = sub.add_parser("layout", help="render a layout JSON file or a graph")
    layout.add_argument("--input", help="layout JSON file")
    layout.add_argument("--graph", help="Tanner graph file (1D line layout)")
    layout.add_argument("--format", required=True,
                        choices=["svg", "tikz", "dot", "json"])
    layout.add_argument("--out", help="output file (default stdout)")
    layout.add_argument("--overlay", help="overlay JSON file")
    layout.add_argument("--edges", action="store_true", help="draw edges")
    layout.add_argument("--scale", type=float, default=12.0)
    layout.add_argument("--shear", type=float, default=0.45)
    layout.add_argument("--yscale", type=float, default=0.3)
    layout.set_defaults(func=cmd_layout)

    verify = sub.add_parser("verify", help="check coverings and actions")
    verify.add_argument("what", choices=["covering", "action"])
    verify.add_argument("--cover", help="cover graph (covering)")
    verify.add_argument("--base", help="base graph (covering)")
    verify.add_argument("--map", help="vertex map JSON (covering)")
    verify.add_argument("--graph", help="graph file (action)")
    verify.add_argument("--action", help="action JSON (action)")
    verify.add_argument("--lenient", action="store_true",
                        help="exit 0 even when freeness or edge checks fail")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
