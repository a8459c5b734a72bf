"""Command-line front end.

The grammar is declared per command: `construct hgp | lp | bp`,
`analyze`, `layout` and `verify covering | action` each take only the
options they use, and any other option is a usage error.  `--seed` and
`--json-out` are global and come before the command; `--json-out` is a
usage error before `layout`, which prints no report.  All runs are
deterministic: identical inputs and seed produce identical bytes.  Exit
codes: 0 success, 1 usage, parse or I/O failure, 2 precondition
violation (reported with its witness), 3 enumeration budget exceeded;
every failure prints one line on stderr, naming the input file of a
parse error.  `analyze --budget` is the one setter of the
distance-enumeration cap, which also bounds the `--c1/--c2` cross-check;
0 means the default and a negative budget exits 1.  `analyze` reads
and validates all its input files, `--c1/--c2` included, before any
analysis.  Each command imports only the layers it runs, and groups,
actions, graphs and check matrices are Python ints.  `json` is loaded
only to read or write JSON, and each command runs with the cyclic
garbage collector paused; `main` restores the caller's setting.
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys
from functools import partial
from pathlib import Path

from .errors import BudgetError, DimensionError, FormatError, PreconditionError, read_file

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit_code_files(code, prefix: str) -> list[str]:
    from . import classical, render

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
    if args.json_out:
        import json

        _write(Path(args.json_out), json.dumps(payload, indent=2) + "\n")


def _construct(args, code) -> int:
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


def cmd_hgp(args) -> int:
    from . import classical, products

    c1 = classical.ClassicalCode(classical.read_check_matrix(args.c1))
    c2 = classical.ClassicalCode(classical.read_check_matrix(args.c2))
    return _construct(args, products.hgp(c1, c2))


def cmd_lp(args) -> int:
    from . import groups, products

    # a `table:` group path is read from the directory of the file that names it
    m1 = read_file(args.m1, groups.parse_ring_matrix, Path(args.m1).parent)
    m2 = read_file(args.m2, groups.parse_ring_matrix, Path(args.m2).parent)
    return _construct(args, products.lifted_product(m1, m2))


def cmd_bp(args) -> int:
    from .products import balanced_product
    from .tanner import TannerGraph, parse_action, parse_graph

    graph_a = read_file(args.graph_a, parse_graph)
    graph_b = read_file(args.graph_b, parse_graph)
    if not isinstance(graph_a, TannerGraph) or not isinstance(graph_b, TannerGraph):
        raise FormatError("balanced products need Tanner graphs, not plain graphs")
    act_a = read_file(args.action_a, parse_action, graph_a, Path(args.action_a).parent)
    act_b = read_file(args.action_b, parse_action, graph_b, Path(args.action_b).parent)
    return _construct(args, balanced_product(graph_a, graph_b, act_a, act_b))


def cmd_analyze(args) -> int:
    from . import analysis, classical, products

    if (args.c1 is None) != (args.c2 is None):
        raise FormatError("qpc analyze: --c1 and --c2 must be given together")
    if args.budget < 0:
        raise FormatError(f"--budget must be a non-negative integer, got '{args.budget}'")
    budget = args.budget or analysis.DEFAULT_BUDGET
    h_x = classical.read_check_matrix(args.hx)
    h_z = classical.read_check_matrix(args.hz)
    # every input is read, and a bad one refused, before any analysis
    factors = [classical.ClassicalCode(classical.read_check_matrix(path))
               for path in (args.c1, args.c2) if path is not None]
    n = h_x.cols
    code = products.css_from_matrices(h_x, h_z)
    payload: dict = {"seed": args.seed, "n": n, "commuting": code.commuting}
    if not code.commuting:
        _, pairs = analysis.check_commutation(code)
        refused = "refused (non-commuting checks)"
        payload.update(anticommuting_pairs=pairs[:10], k=refused, d=refused)
        _report(args, payload)
        return EXIT_OK
    k = analysis.logical_count(code)
    payload["k"] = k
    if k == 0:
        payload["d"] = "none (k = 0)"
    else:
        try:
            d_x, d_z, d = analysis.css_distance(code, budget)
            payload.update(d_x=d_x, d_z=d_z, d=d, params=f"[[{n},{k},{d}]]")
        except BudgetError as exc:
            payload["d"] = f"budget exceeded ({exc.required_text} > {exc.limit})"
            _report(args, payload)
            return EXIT_BUDGET
    if factors:
        c1, c2 = factors
        formula = analysis.hgp_k_formula(c1, c2)
        payload.update(hgp_k_formula=formula, hgp_k_matches=formula == k,
                       hgp_distance_bound=analysis.hgp_distance_bound(c1, c2, budget))
    _report(args, payload)
    return EXIT_OK


def cmd_layout(args) -> int:
    from . import render

    if args.json_out:
        raise FormatError("qpc: --json-out applies to the commands that print a report, not layout")
    if args.input is None:
        from .tanner import parse_graph

        graph = read_file(args.graph, parse_graph)
        table, overlays = render.line_layout_table(graph), ()
    else:
        table, overlays = read_file(args.input, render.parse_layout)
    if args.overlay:
        overlays = overlays + (read_file(args.overlay, render.parse_overlay),)
    include_edges = args.edges or (args.format == "json" and bool(table.edges))
    spec = render.RenderSpec(args.scale, include_edges, args.shear, args.yscale)
    doc = render.emit(table, spec, overlays, args.format)
    if args.out:
        _write(Path(args.out), doc)
        print(f"wrote: {args.out}")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_covering(args) -> int:
    from .tanner import parse_covering, parse_graph, verify_covering

    cover = read_file(args.cover, parse_graph)
    base = read_file(args.base, parse_graph)
    report = verify_covering(cover, base, read_file(args.map, parse_covering, cover))
    payload = {
        "check": "covering",
        "valid": report.valid,
        "lift_size": report.lift_size,
        "violations": report.violations,
    }
    _report(args, payload)
    return EXIT_OK if report.valid else EXIT_PRECONDITION


def cmd_action(args) -> int:
    from .tanner import has_fixed_edge, is_free, parse_action, parse_graph, quotient

    graph = read_file(args.graph, parse_graph)
    action = read_file(args.action, parse_action, graph, Path(args.action).parent)
    free, free_witness = is_free(action)
    pinned, pin_witness = has_fixed_edge(action)
    q, _ = quotient(graph, action)
    payload = {
        "check": "action",
        "valid": True,
        "free": free,
        "free_witness": free_witness,
        "fixed_edge": pinned,
        "fixed_edge_witness": pin_witness,
        "vertex_classes": sum(q.part_sizes().values()),
        "edge_classes": q.edge_count(),
    }
    _report(args, payload)
    return EXIT_OK if args.lenient or (free and not pinned) else EXIT_PRECONDITION


class _Once(argparse.Action):
    """Stores an option's value (`const` for a flag); a second occurrence is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


class _Parser(argparse.ArgumentParser):
    """Declares every option with `_Once`; a usage error is a `FormatError` (exit 1, one line)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a lone "-inf", "-nan" or "-1e5" is a value, as "-1" is, so its option's type names it
        self._negative_number_matcher = re.compile(
            r"^-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)$", re.IGNORECASE)
        self.register("action", None, _Once)
        self.register("action", "store_true", partial(_Once, nargs=0, const=True, default=False))

    def error(self, message: str):
        raise FormatError(f"{self.prog}: {message}")


def _finite(text: str, positive: bool = False) -> float:
    """A finite number (positive when asked) as an option value, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and value <= 0):
        raise argparse.ArgumentTypeError(
            f"expected a {'positive ' * positive}finite number, got {text!r}")
    return value


def _command(sub, name: str, func, summary: str, inputs: dict[str, str]) -> argparse.ArgumentParser:
    """A subcommand handled by `func` that requires every option in `inputs`."""
    parser = sub.add_parser(name, help=summary)
    for option, text in inputs.items():
        parser.add_argument(option, required=True, help=text)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpc",
        description="Construct and verify quantum CSS product codes.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports (default 0)")
    parser.add_argument("--json-out", help="also write the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    products = sub.add_parser("construct", help="build a product code").add_subparsers(
        dest="product", required=True)
    for name, func, summary, inputs in (
        ("hgp", cmd_hgp, "hypergraph product of two classical codes",
         {"--c1": "first classical PCM", "--c2": "second classical PCM"}),
        ("lp", cmd_lp, "lifted product of two ring matrices",
         {"--m1": "first ring matrix", "--m2": "second ring matrix"}),
        ("bp", cmd_bp, "balanced product of two Tanner graphs",
         {"--graph-a": "first Tanner graph", "--graph-b": "second Tanner graph",
          "--action-a": "action on the first graph",
          "--action-b": "action on the second graph"}),
    ):
        _command(products, name, func, summary, inputs).add_argument(
            "--out-prefix", required=True, help="path prefix of the written files")

    analyze = _command(sub, "analyze", cmd_analyze, "report code parameters",
                       {"--hx": "X-check PCM (.pcm or .alist)",
                        "--hz": "Z-check PCM (.pcm or .alist)"})
    analyze.add_argument("--budget", type=int, default=0,
                         help="distance enumeration cap; 0 means the default (2^24)")
    analyze.add_argument("--c1", help="classical input for the HGP cross-check (with --c2)")
    analyze.add_argument("--c2", help="classical input for the HGP cross-check (with --c1)")

    layout = _command(sub, "layout", cmd_layout, "render a layout JSON file or a graph", {})
    source = layout.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="layout JSON file")
    source.add_argument("--graph", help="Tanner graph file (1D line layout)")
    layout.add_argument("--format", required=True,
                        choices=["svg", "tikz", "dot", "json"])
    layout.add_argument("--out", help="output file (default stdout)")
    layout.add_argument("--overlay", help="overlay JSON file")
    layout.add_argument("--edges", action="store_true", help="draw edges")
    layout.add_argument("--scale", type=partial(_finite, positive=True), default=12.0,
                        help="svg units per layout unit, positive")
    layout.add_argument("--shear", type=_finite, default=0.45, help="oblique shear (3D only)")
    layout.add_argument("--yscale", type=_finite, default=0.3, help="oblique y scale (3D only)")

    checks = sub.add_parser("verify", help="check coverings and actions").add_subparsers(
        dest="check", required=True)
    _command(checks, "covering", cmd_covering, "check a covering map",
             {"--cover": "cover graph", "--base": "base graph", "--map": "vertex map JSON"})
    _command(checks, "action", cmd_action, "check a group action",
             {"--graph": "graph file", "--action": "action JSON"}).add_argument(
        "--lenient", action="store_true",
        help="exit 0 even when freeness or edge checks fail")
    return parser


def main(argv=None) -> int:
    if (groups := sys.modules.get(f"{__package__}.groups")) is not None:  # Z<l> once per command
        groups._named_group.cache_clear()
    collecting = gc.isenabled()
    gc.disable()  # a command leaves at most a few thousand objects in cycles: no sweep pays
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (FormatError, DimensionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
