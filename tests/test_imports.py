"""Which modules each command loads, the lazily resolved public API, and
what reaches each public name.

Each command runs through `qpc.cli.main` in a fresh interpreter, which
then lists the qpc modules, numpy, `dataclasses`, `inspect` and `json`
in its `sys.modules`.
`import qpc` loads no submodule; `layout --input` loads only `cli`,
`errors` and `render`; `verify covering` and `layout --graph` only
`cli`, `errors` and `tanner` (plus `render` for the layout); and
`verify action` only those and `groups`, which imports `gf2` inside
`binary_map` alone.  `json` is loaded only by a command that reads or
writes JSON: not by `analyze` without `--json-out`, nor by `layout
--graph` to svg, tikz or dot.  `analyze` loads no `render`.  qpc needs
no module outside the standard library: every command of `REACH`, and
the decided distance of a code that is no graph (Hamming x rep3), runs
where numpy cannot be imported, with its usual exit code.  None loads
`dataclasses`, which pulls in `inspect`, `ast`, `dis` and `tokenize`:
qpc's records are `typing.NamedTuple`s, so no command loads `inspect`
either.

Every public name is reached by a command or the README's library
sketch, run in process under `sys.setprofile`, or is one that perfbench
patches by name; there is no other exception.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qpc

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

WATCHED = ("numpy", "dataclasses", "inspect", "json")
RENDER_ONLY = {"qpc", "qpc.cli", "qpc.errors", "qpc.render"}
GRAPH_ONLY = {"qpc", "qpc.cli", "qpc.errors", "qpc.tanner"}
LINE3 = ["verify", "covering", "--cover", FIXTURES / "line3_2lift.graph",
         "--base", FIXTURES / "line3.graph", "--map"]
Z3_ACTION = ["verify", "action", "--graph", FIXTURES / "cycle6.graph",
             "--action", FIXTURES / "cycle6_z3.action.json"]
S3_ACTION = ["verify", "action", "--graph", FIXTURES / "s3_lift.graph",
             "--action", FIXTURES / "s3_lift.action.json"]

# `qpc.__all__` as it stood when every submodule was imported eagerly, less
# `CodeParams`, `QuotientLayout`, `CoveringMap` and `Oblique` (deleted), eleven
# names no command called (now in oracles.py) and `RrefResult` (still in `gf2`).
PUBLIC = [
    "BitMatrix", "BudgetError", "CSSCode", "CSSParams", "ClassicalCode", "CoordinateTable",
    "DimensionError", "FiniteGroup", "FormatError", "GroupAction",
    "GroupAlgebraElement", "GroupAlgebraMatrix", "OperatorOverlay",
    "PlainGraph", "PreconditionError", "RenderSpec", "TannerGraph", "analysis",
    "balanced_product", "binary_map", "check_commutation", "classical", "css_distance",
    "css_from_matrices", "css_params", "emit", "errors", "gf2", "groups", "has_fixed_edge",
    "hgp", "hgp_distance_bound", "hgp_k_formula", "is_free", "kernel_basis", "kron",
    "lift_from_ring_matrix", "lifted_product", "line_layout_table", "logical_count", "matmul",
    "parse_group_spec", "parse_layout", "products", "quotient", "rank", "render", "rref",
    "tanner", "verify_covering",
]

# Public names that only perfbench reaches: its tracer patches each `TARGETS` entry by name.
PERFBENCH_ONLY = {"kernel_basis", "matmul", "rref"}

# Commands that, with the README sketch, reach every other public name, each with its
# exit code.  Files named without a directory are in `work`; a comment names the error
# a command ends in.
REACH = [
    (["construct", "hgp", "--c1", FIXTURES / "rep3.pcm", "--c2", FIXTURES / "hamming74.pcm",
      "--out-prefix", "reach_hgp"], 0),
    (["construct", "lp", "--m1", FIXTURES / "rep3_z3.ring", "--m2", FIXTURES / "rep3_z3.ring",
      "--out-prefix", "reach_lp"], 0),
    (["construct", "bp", "--graph-a", FIXTURES / "lift_1px_z3.graph",
      "--graph-b", FIXTURES / "lift_1px_z3.graph", "--action-a", FIXTURES / "bp_a_z3.action.json",
      "--action-b", FIXTURES / "bp_b_z3.action.json", "--out-prefix", "reach_bp"], 0),
    (["analyze", "--hx", "toric.hx.alist", "--hz", "toric.hz.pcm",
      "--c1", FIXTURES / "rep3.pcm", "--c2", FIXTURES / "rep3.pcm"], 0),
    (["analyze", "--hx", "toric.hx.pcm", "--hz", "toric.hz.pcm", "--budget", "2"], 3),  # BudgetError
    (["analyze", "--hx", "reach_hgp.hx.pcm", "--hz", "reach_hgp.hz.alist"], 0),  # eliminates
    (["analyze", "--hx", "x12.pcm", "--hz", "z12.pcm"], 0),       # checks that anticommute
    (["analyze", "--hx", "x12.pcm", "--hz", "z13.pcm"], 1),       # DimensionError
    (["layout", "--input", "lp.layout.json", "--overlay", "z.overlay.json", "--format", "svg",
      "--edges", "--out", "reach.svg"], 0),
    (["layout", "--graph", FIXTURES / "lift_1px_z3.graph", "--format", "tikz", "--out", "reach.tex"],
     0),
    ([*LINE3, FIXTURES / "line3_2lift.map.json"], 0),
    ([*LINE3, "far.map.json"], 2),                                # PreconditionError
    (Z3_ACTION, 0),
    (S3_ACTION, 0),
    (["analyze", "--hx", "x12.pcm", "--hz", "z12.pcm", "--budget", "-1"], 1),  # FormatError
]
# The decided distance of a code that is no graph: the search over its kernels.
HAMMING_REP3 = ["analyze", "--hx", "ham.hx.pcm", "--hz", "ham.hz.alist",
                "--c1", FIXTURES / "hamming74.pcm", "--c2", FIXTURES / "rep3.pcm"]


def probe(cwd: Path, prelude: str, *argv) -> tuple[int | None, str, set[str]]:
    """Run `prelude` and then `main(argv)`, if given, in a fresh interpreter.

    Returns the exit code of `main`, its stdout, and the qpc modules and
    the `WATCHED` ones then loaded, which the interpreter lists before it
    imports `json` to print them as its last line of stderr.
    """
    lines = ["import sys", prelude, "code = None"]
    if argv:
        lines += ["from qpc.cli import main", f"code = main({[str(a) for a in argv]!r})"]
    lines += ['modules = sorted(m for m, mod in sys.modules.items()'
              f' if mod is not None and (m in {WATCHED!r} or m.split(".")[0] == "qpc"))',
              "import json", "print(json.dumps([code, modules]), file=sys.stderr)"]
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], cwd=cwd, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stderr.splitlines()[-1])
    return code, result.stdout, set(modules)


def loaded(cwd: Path, prelude: str, *argv) -> set[str]:
    """The modules `probe` lists after `prelude` and a command that exits 0."""
    code, _, modules = probe(cwd, prelude, *argv)
    assert code in (None, 0)
    return modules


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The toric, planar and Hamming x rep3 codes and a 3D layout written by
    `construct`, two check matrices that anticommute, an overlay file, the
    Tanner graph of 1 + x over Z3 as a 3-lift of a double edge (and not of a
    single edge), and the other files the `REACH` commands read."""
    root = tmp_path_factory.mktemp("imports")
    from qpc.cli import main

    assert main(["construct", "hgp", "--c1", str(FIXTURES / "rep3.pcm"),
                 "--c2", str(FIXTURES / "rep3.pcm"), "--out-prefix", str(root / "toric")]) == 0
    assert main(["construct", "hgp", "--c1", str(FIXTURES / "hamming74.pcm"),
                 "--c2", str(FIXTURES / "rep3.pcm"), "--out-prefix", str(root / "ham")]) == 0
    (root / "path3.pcm").write_text("2 3\n1 1 0\n0 1 1\n")
    assert main(["construct", "hgp", "--c1", str(root / "path3.pcm"),
                 "--c2", str(root / "path3.pcm"), "--out-prefix", str(root / "planar")]) == 0
    assert main(["construct", "lp", "--m1", str(FIXTURES / "rep3_z3.ring"),
                 "--m2", str(FIXTURES / "rep3_z3.ring"), "--out-prefix", str(root / "lp")]) == 0
    (root / "anti.hx.pcm").write_text("2 3\n1 1 0\n0 1 1\n")
    (root / "anti.hz.pcm").write_text("1 3\n1 0 0\n")
    (root / "z.overlay.json").write_text('{"paulis": [[0, "Z"], [4, "X"]]}')
    (root / "double.graph").write_text("checks 1 bits 1\nc0 b0\nc0 b0\n")
    (root / "single.graph").write_text("checks 1 bits 1\nc0 b0\n")
    (root / "z3.map.json").write_text('{"check_map": [0, 0, 0], "bit_map": [0, 0, 0]}')
    (root / "x12.pcm").write_text("1 2\n1 1\n")
    (root / "z12.pcm").write_text("1 2\n1 0\n")
    (root / "z13.pcm").write_text("1 3\n1 0 0\n")
    (root / "far.map.json").write_text('{"vertex_map": [0, 0, 1, 1, 2, 9]}')
    assert main([str(a) for a in REACH[0][0][:-1]] + [str(root / "reach_hgp")]) == 0
    return root


def readme_sketch() -> str:
    return re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)


def builder(cls: type) -> int | None:
    """The id of the code that builds a `cls`: a record's generated `__new__`, else the
    `__init__` that `cls` defines; None when it defines neither."""
    made = vars(cls).get("__new__" if hasattr(cls, "_fields") else "__init__")
    return id(getattr(made, "__func__", made).__code__) if made else None


@pytest.fixture(scope="module")
def reached(work) -> set[str]:
    """The public names that the commands of `REACH` and the README sketch reach.

    A function is reached when its code runs, a class when its `builder`
    runs or a command ends in an instance of it, and a module when any of
    its code runs.  Each command runs as `cli.main` runs it, less the
    handler that turns the error it ends in into an exit code.
    """
    from qpc import cli

    called, ended = {}, set()      # the code run, by id, and the errors commands end in

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    cwd, previous = os.getcwd(), sys.getprofile()
    os.chdir(work)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in REACH:
                try:
                    args = cli.build_parser().parse_args([str(a) for a in argv])
                    args.func(args)
                except Exception as exc:
                    ended.add(type(exc))
            exec(readme_sketch(), {})
    finally:
        sys.setprofile(previous)
        os.chdir(cwd)
    files = {code.co_filename for code in called.values()}
    names = set()
    for name in qpc.__all__:
        value = getattr(qpc, name)
        if isinstance(value, type(qpc)):
            hit = value.__file__ in files
        elif isinstance(value, type):
            hit = value in ended or builder(value) in called
        else:
            hit = id(value.__code__) in called
        if hit:
            names.add(name)
    return names


class TestImportSets:
    def test_import_qpc_loads_no_submodule(self, tmp_path):
        assert loaded(tmp_path, "import qpc") == {"qpc"}

    def test_import_cli_loads_errors_only(self, tmp_path):
        assert loaded(tmp_path, "import qpc.cli") == {"qpc", "qpc.cli", "qpc.errors"}

    @pytest.mark.parametrize("layout", ["toric", "lp"])
    @pytest.mark.parametrize("fmt", ["svg", "tikz", "dot", "json"])
    def test_layout_input_loads_render_only(self, work, layout, fmt):
        modules = loaded(work, "", "layout", "--input", work / f"{layout}.layout.json",
                         "--overlay", work / "z.overlay.json", "--format", fmt,
                         "--out", work / f"{layout}.{fmt}")
        assert modules == RENDER_ONLY | {"json"}

    def test_analyze_loads_neither_groups_nor_tanner(self, work):
        # a graph code's distance is a shortest cycle, the Hamming x rep3 HGP's a search
        # over its kernels: neither loads numpy
        for argv in (["analyze", "--hx", work / "toric.hx.alist", "--hz", work / "toric.hz.pcm",
                      "--c1", FIXTURES / "rep3.pcm", "--c2", FIXTURES / "rep3.pcm"], HAMMING_REP3):
            modules = loaded(work, "", *argv)
            assert "qpc.analysis" in modules
            assert not modules & {"numpy", "qpc.groups", "qpc.tanner", "dataclasses", "json"}

    @pytest.mark.parametrize("cross_check", [False, True], ids=["checks", "with-c1-c2"])
    def test_analyze_loads_no_render(self, work, cross_check):
        # the layout builders import render on first read of a layout; analyze reads none
        codes = ["--c1", FIXTURES / "rep3.pcm", "--c2", FIXTURES / "rep3.pcm"] * cross_check
        modules = loaded(work, "", "analyze", "--hx", work / "toric.hx.alist",
                         "--hz", work / "toric.hz.alist", *codes)
        assert {"qpc.products", "qpc.analysis"} <= modules
        assert not modules & {"qpc.render", "dataclasses"}

    def test_construct_hgp_loads_neither_groups_nor_tanner(self, work):
        modules = loaded(work, "", "construct", "hgp", "--c1", FIXTURES / "hamming74.pcm",
                         "--c2", FIXTURES / "rep3.pcm", "--out-prefix", work / "ham")
        assert "qpc.products" in modules
        assert not modules & {"qpc.groups", "qpc.tanner", "dataclasses"}

    @pytest.mark.parametrize("argv, exit_code",
                             [*REACH, (HAMMING_REP3, 0), ([*HAMMING_REP3, "--budget", "2"], 3)],
                             ids=[f"{i}-{argv[0]}-{argv[1]}" for i, (argv, _) in enumerate(REACH)]
                             + ["hamming-rep3", "hamming-rep3-refused"])
    def test_commands_run_with_numpy_blocked(self, work, argv, exit_code):
        # with numpy blocked, a command that imported it would end in ModuleNotFoundError,
        # which no handler turns into an exit code, and the probe would fail
        code, _, modules = probe(work, 'sys.modules["numpy"] = None', *argv)
        assert code == exit_code and "numpy" not in modules
        assert "dataclasses" not in modules

    def test_layout_graph_loads_tanner(self, work):
        # the probe sees a lazily imported layer when the command needs it
        modules = loaded(work, "", "layout", "--graph", FIXTURES / "lift_1px_z3.graph",
                         "--format", "tikz", "--out", work / "lift.tex")
        assert modules == GRAPH_ONLY | RENDER_ONLY

    @pytest.mark.parametrize("fmt, edges", [("dot", False), ("dot", True), ("svg", False),
                                            ("svg", True), ("tikz", True)])
    def test_layout_graph_skips_numpy(self, work, fmt, edges):
        modules = loaded(work, "", "layout", "--graph", FIXTURES / "lift_1px_z3.graph",
                         "--format", fmt, *["--edges"] * edges, "--out", work / f"lift.{fmt}")
        assert modules == GRAPH_ONLY | RENDER_ONLY

    @pytest.mark.parametrize("map_file", ["line3_2lift.map.json", "line3_2lift_bad.map.json"])
    def test_verify_covering_skips_numpy(self, work, map_file):
        code, _, modules = probe(work, "", *LINE3, FIXTURES / map_file)
        assert modules == GRAPH_ONLY | {"json"}
        assert code == (0 if map_file == "line3_2lift.map.json" else 2)

    @pytest.mark.parametrize("argv, exit_code", [
        (Z3_ACTION, 0), (S3_ACTION, 0),
        (["verify", "action", "--graph", FIXTURES / "b4.graph",
          "--action", FIXTURES / "b4_z3.action.json"], 2),
    ], ids=["action-z3", "action-s3", "action-refused"])
    def test_verify_action_loads_groups_and_tanner_only(self, work, argv, exit_code):
        # a group table and an action are Python ints, and only binary_map needs gf2
        code, _, modules = probe(work, "", *argv)
        assert (code, modules) == (exit_code, GRAPH_ONLY | {"qpc.groups", "json"})


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert qpc.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_home_object(self, name):
        value = getattr(qpc, name)
        if isinstance(value, type(qpc)):
            assert value is importlib.import_module(f"qpc.{name}")
        else:
            assert getattr(sys.modules[value.__module__], name) is value
            assert value.__module__.startswith("qpc.")

    def test_star_import(self):
        namespace = {}
        exec("from qpc import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == PUBLIC
        assert all(namespace[name] is getattr(qpc, name) for name in PUBLIC)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            qpc.no_such_name
        assert not hasattr(qpc, "_no_such_private")
        with pytest.raises(ImportError):
            exec("from qpc import no_such_name", {})

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC) <= set(dir(qpc))

    def test_readme_library_sketch_prints_its_comments(self, tmp_path):
        # each print(...) line's comment is its output; "..." stands for any text.
        # numpy is blocked: the library runs on the standard library alone
        sketch = readme_sketch()
        expected = [line.split("# ", 1)[1] for line in sketch.splitlines() if line.startswith("print(")]
        blocked = 'import sys; sys.modules["numpy"] = None\n'
        result = subprocess.run(
            [sys.executable, "-c", blocked + sketch], cwd=tmp_path, capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        printed = result.stdout.splitlines()
        assert len(printed) == len(expected) > 0
        for got, want in zip(printed, expected):
            assert re.fullmatch(".*".join(map(re.escape, want.split("..."))), got), (got, want)


class TestReach:
    def test_every_public_name_is_reached(self, reached):
        unreached = set(qpc.__all__) - reached - PERFBENCH_ONLY
        assert not unreached, f"no command, README line or perfbench target reaches {unreached}"

    def test_perfbench_only_names_are_tracing_targets(self, reached):
        assign = next(node for node in ast.parse(TRACING.read_text()).body
                      if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS")
        assert PERFBENCH_ONLY <= {attr for _, attr, _ in ast.literal_eval(assign.value)}
        assert PERFBENCH_ONLY <= set(qpc.__all__)
        assert not reached & PERFBENCH_ONLY
