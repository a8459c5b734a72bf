"""Seeded fuzzing of the `qpc` command line.

Each case is a command run in-process through `qpc.cli.main`, so an
exception escaping it fails the case.  The cases are:

- truncations and single-byte replacements of every fixture and of the
  files `construct` writes (alist, layout JSON), read by every command
  that takes them;
- a token of a PCM, alist, ring, group-table or graph file replaced by a
  bad token, or by an index just out of range;
- a value of an action, covering, layout or overlay file replaced by a
  value of another JSON type, or an index replaced by one out of range;
- every option of every subcommand dropped, given twice, given without
  its value or given to a subcommand that does not declare it, plus bad
  values, unknown commands and the two paired-option rules.

Every case must end with exit 0 and a silent stderr (a file mutation may
still be well formed), or with exit 1, 2 or 3 and exactly one stderr line
of the documented kind, and never with a traceback.  Exit 2 and 3 may
instead print their report on stdout: a failed covering or action check,
or a refused distance.  Every case except a truncation or byte
replacement is malformed and must not exit 0.

Sizes in the mutations are either small or beyond the largest array
dimension.  A size in between that the machine cannot allocate or loop
over (a group of order 10^5, a graph header of 10^12 checks) is a known
defect recorded in CHANGES.md and is not drawn here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
from pathlib import Path

import pytest

from qpc.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 20240611
MUTATIONS_PER_FILE = 12        # of each kind (truncation, byte, token or JSON value)
PREFIX = {1: "error: ", 2: "precondition violated: ", 3: "budget exceeded: "}
BAD_TOKENS = ("-1", "1.5", "x1", "99999999999999999999", "0x1", "1e3", "½")
OTHER_TYPES = (5, -1, 0.5, True, None, "a", [], {}, [1, "a"], [[0]])


def run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def check(argv, must_fail: bool, mutant: bytes | str = "") -> None:
    code, out, err = run(*argv)
    where = f"qpc {' '.join(map(str, argv))} on {mutant!r} -> exit {code}, stderr {err!r}"
    assert code in (0, 1, 2, 3), where
    assert "Traceback" not in err, where
    if must_fail:
        assert code != 0, where
    if err:
        assert code != 0 and err.count("\n") == 1 and err.endswith("\n"), where
        assert err.startswith(PREFIX[code]), where
    else:
        assert code in (0, 2, 3) and (code == 0 or out), where


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Fixtures plus files written by `construct`, an overlay and a table-group ring."""
    root = tmp_path_factory.mktemp("fuzz")
    for path in FIXTURES.iterdir():
        shutil.copy(path, root / path.name)
    for argv in (
        ["construct", "hgp", "--c1", root / "rep3.pcm", "--c2", root / "rep3.pcm",
         "--out-prefix", root / "toric"],
        ["construct", "lp", "--m1", root / "rep3_z3.ring", "--m2", root / "rep3_z3.ring",
         "--out-prefix", root / "lp"],
    ):
        assert run(*argv)[0] == 0
    (root / "ov.json").write_text(json.dumps({"paulis": [[0, "X"], [4, "Z"], [8, "Y"]]}))
    (root / "s3.ring").write_text(f"1 2 group=table:{root / 's3.table'}\ng1+g2,g3*g4^2\n")
    return root


def commands(root: Path) -> dict[str, list]:
    """Well-formed commands, one per subcommand and input kind."""
    f, out = root.__truediv__, root / "out"
    return {
        "hgp": ["construct", "hgp", "--c1", f("rep3.pcm"), "--c2", f("hamming74.pcm"),
                "--out-prefix", out / "hgp"],
        "lp": ["construct", "lp", "--m1", f("rep3_z3.ring"), "--m2", f("rep3_z3.ring"),
               "--out-prefix", out / "lp"],
        "lp_z1": ["construct", "lp", "--m1", f("rep3_z1.ring"), "--m2", f("rep3_z1.ring"),
                  "--out-prefix", out / "lp_z1"],
        "lp_table": ["construct", "lp", "--m1", f("s3.ring"), "--m2", f("s3.ring"),
                     "--out-prefix", out / "lp_table"],
        "bp": ["construct", "bp", "--graph-a", f("lift_1px_z3.graph"),
               "--graph-b", f("lift_1px_z3.graph"), "--action-a", f("bp_a_z3.action.json"),
               "--action-b", f("bp_b_z3.action.json"), "--out-prefix", out / "bp"],
        "analyze": ["analyze", "--hx", f("toric.hx.pcm"), "--hz", f("toric.hz.pcm"),
                    "--c1", f("rep3.pcm"), "--c2", f("rep3.pcm"), "--budget", 4096],
        "analyze_alist": ["analyze", "--hx", f("toric.hx.alist"), "--hz", f("toric.hz.alist")],
        "layout_input": ["layout", "--input", f("toric.layout.json"), "--format", "svg",
                         "--overlay", f("ov.json"), "--edges", "--out", out / "toric.svg"],
        "layout_3d": ["layout", "--input", f("lp.layout.json"), "--format", "tikz",
                      "--scale", 3, "--shear", 0.5, "--yscale", 0.25, "--out", out / "lp.tex"],
        "layout_graph": ["layout", "--graph", f("lift_1px_z3.graph"), "--format", "dot",
                         "--out", out / "line.dot"],
        "covering": ["verify", "covering", "--cover", f("line3_2lift.graph"),
                     "--base", f("line3.graph"), "--map", f("line3_2lift.map.json")],
        "covering_bad": ["verify", "covering", "--cover", f("line3_2lift.graph"),
                         "--base", f("line3.graph"), "--map", f("line3_2lift_bad.map.json")],
        "action": ["verify", "action", "--graph", f("cycle6.graph"),
                   "--action", f("cycle6_z3.action.json")],
        "action_b4": ["verify", "action", "--graph", f("b4.graph"),
                      "--action", f("b4_z3.action.json"), "--lenient"],
    }


def test_base_commands_succeed(work):
    for name, argv in commands(work).items():
        code, _, err = run(*argv)
        assert (code, err) == ((2, "") if name == "covering_bad" else (0, "")), name


# -- file mutations ------------------------------------------------------------


def uses(root: Path):
    """(command, file) for every input file of every well-formed command."""
    for name, argv in commands(root).items():
        for k, arg in enumerate(argv):
            if isinstance(arg, Path) and arg.parent == root and argv[k - 1] != "--out-prefix":
                yield name, k, arg
    yield "lp_table", None, root / "s3.table"     # read through the ring file's group spec


def run_mutant(root: Path, name: str, k, source: Path, text: bytes | str, must_fail: bool):
    mutant = root / "mutant" / source.name
    mutant.parent.mkdir(exist_ok=True)
    (mutant.write_bytes if isinstance(text, bytes) else mutant.write_text)(text)
    argv = list(commands(root)[name])
    if k is None:    # the table behind a ring file
        ring = root / "mutant" / "s3.ring"
        ring.write_text((root / "s3.ring").read_text().replace(str(source), str(mutant)))
        argv = [ring if arg == root / "s3.ring" else arg for arg in argv]
    else:
        argv[k] = mutant
    check(argv, must_fail, text)


def test_truncated_and_byte_replaced_files(work):
    rng = random.Random(SEED)
    for name, k, path in uses(work):
        data = path.read_bytes()
        for _ in range(MUTATIONS_PER_FILE):
            run_mutant(work, name, k, path, data[:rng.randrange(len(data))], must_fail=False)
            at = rng.randrange(len(data))
            flipped = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
            run_mutant(work, name, k, path, flipped, must_fail=False)


def test_bad_tokens_in_text_files(work):
    rng = random.Random(SEED + 1)
    for name, k, path in uses(work):
        if path.suffix == ".json":
            continue
        text = path.read_text()
        spans = [m.span() for m in re.finditer(r"[^\s,+*=:]+", text)]
        for _ in range(MUTATIONS_PER_FILE):
            start, end = rng.choice(spans)
            bad = text[:start] + rng.choice(BAD_TOKENS) + text[end:]
            run_mutant(work, name, k, path, bad, must_fail=True)


def test_out_of_range_indices_in_text_files(work):
    """An index of a graph edge or an alist adjacency list pushed past every size."""
    rng = random.Random(SEED + 4)
    for name, k, path in uses(work):
        if path.suffix not in (".graph", ".alist"):
            continue
        text = path.read_text()
        header = text.split("\n", 4 if path.suffix == ".alist" else 1)
        far = max(int(t) for t in re.findall(r"\d+", header[0])) + 1
        offset = len(text) - len(header[-1])
        spans = [m.span(1) for m in re.finditer(r"\b[cbv]?(\d+)\b", text) if m.start() >= offset]
        for _ in range(MUTATIONS_PER_FILE):
            start, end = rng.choice(spans)
            run_mutant(work, name, k, path, text[:start] + str(far) + text[end:], must_fail=True)


def _paths(value, path=()):
    """Every position inside a JSON document, as key/index paths."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replace(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_wrong_json_types(work):
    rng = random.Random(SEED + 2)
    for name, k, path in uses(work):
        if path.suffix != ".json":
            continue
        doc = json.loads(path.read_text())
        paths = list(_paths(doc))
        for _ in range(MUTATIONS_PER_FILE):
            where = rng.choice(paths)
            old = _at(doc, where)
            new = rng.choice([v for v in OTHER_TYPES if type(v) is not type(old)])
            run_mutant(work, name, k, path, json.dumps(_replace(doc, where, new)), must_fail=True)


def test_out_of_range_json_indices(work):
    rng = random.Random(SEED + 3)
    for name, k, path in uses(work):
        if not path.name.endswith((".action.json", ".map.json")):
            continue
        doc = json.loads(path.read_text())
        entries = [p for p in _paths(doc) if type(_at(doc, p)) is int]
        for _ in range(MUTATIONS_PER_FILE):
            where = rng.choice(entries)
            new = rng.choice([-1, 10**30, len(_at(doc, where[:-1])) + 5])
            run_mutant(work, name, k, path, json.dumps(_replace(doc, where, new)), must_fail=True)


@pytest.mark.parametrize("doc, message", [
    ({"group": 5, "generators": []}, "'group' must be a string, got an integer"),
    ({"group": "Z3", "generators": [{"vertex_perm": 5}]},
     "generator 0: 'vertex_perm' must be a list, got an integer"),
    ({"group": "Z3", "generators": [5]}, "'generators' entry 0 must be an object, got an integer"),
    ({"group": "Z3", "generators": [{"vertex_perm": [1, 2, 0, 0.5]}]},
     "generator 0: 'vertex_perm' entry 3 must be an integer, got a number"),
    ({"group": "Z3", "generators": [{"vertex_perm": [1, 2, 0, True]}]},
     "generator 0: 'vertex_perm' entry 3 must be an integer, got a boolean"),
    ({"group": "Z3", "generators": [{}]}, "generator 0 has no 'vertex_perm'"),
    ({"group": "Z3", "elements": [{"vertex_perm": ["a", 1, 2, 3]}] * 3},
     "element 0: 'vertex_perm' entry 0 must be an integer, got a string"),
    (5, "an action file must be an object, got an integer"),
])
def test_action_type_faults_name_the_type(work, doc, message):
    (work / "typed.action.json").write_text(json.dumps(doc))
    code, out, err = run("verify", "action", "--graph", work / "b4.graph",
                         "--action", work / "typed.action.json")
    assert (code, out, err) == (1, "", f"error: {work / 'typed.action.json'}: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"vertex_map": [0, 0, 1, 1, 2, 0.5]}, "'vertex_map' entry 5 must be an integer, got a number"),
    ({"vertex_map": ["a", 0, 1, 1, 2, 2]}, "'vertex_map' entry 0 must be an integer, got a string"),
    ({"vertex_map": [[0, 0], [1, 1, 2, 2]]}, "'vertex_map' entry 0 must be an integer, got a list"),
    ({"vertex_map": 3}, "'vertex_map' must be a list, got an integer"),
    ([0, 0, 1, 1, 2, 2], "a covering file must be an object, got a list"),
])
def test_covering_type_faults_name_the_type(work, doc, message):
    (work / "typed.map.json").write_text(json.dumps(doc))
    code, out, err = run("verify", "covering", "--cover", work / "line3_2lift.graph",
                         "--base", work / "line3.graph", "--map", work / "typed.map.json")
    assert (code, out, err) == (1, "", f"error: {work / 'typed.map.json'}: {message}\n")


def test_huge_covering_image_is_out_of_range(work):
    (work / "far.map.json").write_text('{"vertex_map": [0, 0, 1, 1, 2, %d]}' % 10**30)
    code, out, err = run("verify", "covering", "--cover", work / "line3_2lift.graph",
                         "--base", work / "line3.graph", "--map", work / "far.map.json")
    assert (code, out, err) == (2, "", "precondition violated: vertex map has out-of-range images\n")


# -- option mutations ------------------------------------------------------------


def _options(argv) -> list[tuple[int, int]]:
    """(start, end) of each option and its value in a command's argv."""
    spans, k = [], 0
    while k < len(argv):
        if str(argv[k]).startswith("--"):
            takes_value = k + 1 < len(argv) and not str(argv[k + 1]).startswith("--")
            spans.append((k, k + 1 + takes_value))
            k += 1 + takes_value
        else:
            k += 1
    return spans


REQUIRED = {"--c1", "--c2", "--m1", "--m2", "--graph-a", "--graph-b", "--action-a", "--action-b",
            "--out-prefix", "--hx", "--hz", "--format", "--cover", "--base", "--map", "--action",
            "--input", "--graph"}


def option_cases(root: Path):
    cmds = commands(root)
    every = {}
    for argv in cmds.values():
        for start, end in _options(argv):
            every.setdefault(argv[start], argv[start:end])
    for argv in cmds.values():
        command = argv[:_options(argv)[0][0]]
        declared = {str(a[s]) for a in cmds.values() if a[:len(command)] == command
                    for s, _ in _options(a)}
        for start, end in _options(argv):
            if argv[start] in REQUIRED:     # analyze --c1 and --c2 must come together
                yield argv[:start] + argv[end:]                         # dropped
            yield argv + argv[start:end]                                # given twice
            if end - start == 2:
                yield argv[:start] + argv[end:] + [argv[start]]         # value missing
        for option, given in every.items():
            if option not in declared:
                yield argv + given                                      # wrong subcommand
    yield from ([a] for a in ("construct", "analyze", "layout", "verify", "frob", "--seed"))
    yield ["construct", "xx", "--out-prefix", root / "out" / "x"]
    yield ["verify", "both", "--graph", root / "b4.graph"]
    yield ["--seed", "x", "analyze", "--hx", root / "rep3.pcm", "--hz", root / "rep3.pcm"]
    yield ["--json-out"]
    yield cmds["analyze"][:5] + ["--budget", "abc"]
    yield cmds["analyze"][:5] + ["--budget", "1.5"]
    yield cmds["analyze"][:5] + ["--budget", "-3"]
    yield cmds["analyze"][:5] + ["--c1", root / "rep3.pcm"]
    yield cmds["analyze"][:5] + ["--c2", root / "rep3.pcm"]
    yield cmds["layout_input"] + ["--graph", root / "lift_1px_z3.graph"]
    yield [a for a in cmds["layout_input"] if a not in ("--input", root / "toric.layout.json")]
    yield cmds["layout_input"][:3] + ["--format", "png"]
    yield cmds["layout_3d"][:5] + ["--scale", "big"]


def test_malformed_command_lines(work):
    cases = list(option_cases(work))
    assert len(cases) > 150
    for argv in cases:
        check(argv, must_fail=True)
