"""Golden outputs: sha256 of stdout and of every written file per CLI command.

Each command of the README (plus a few fixture commands with asymmetric
shapes and alist inputs) runs through `cli.main` with the working
directory set to a fresh `tmp_path`, so the relative output paths printed
on stdout are the same on every run.  The manifest was recorded before the
vectorised emitters and the packed kernels existed, and the entries for the
failing `verify` commands (covering violation, non-free action with a
pinned edge) before the edge-array graph view, and the drawing entries
with edges and overlays (`layout_lp_*_edges_overlay`,
`layout_toric_*_overlay`) before svg, tikz and dot were drawn by one loop,
except the two dot ones (`layout_lp_dot_edges_overlay`,
`layout_toric_dot_overlay`), recorded again when dot began to colour
overlaid qubits; any byte that moves fails here.  `verify_action_s3`
was recorded when action files over table groups began to list the
group's generating set; its action file names its table by the path
`s3.table`, which is read from the action file's own directory.  The
rep3 x K4 entries (`construct_hgp_rep3_k4`, `analyze_rep3_k4`) were
recorded while d_z of a code with graph X checks and Z checks that are
no graph was still found by the search over its kernel, before the cycle
engine took it.

`python tests/test_golden.py` prints the manifest of the qpc on the
import path, in the format of `golden_manifest.json`.
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"


def _f(name: str) -> str:
    return str(FIXTURES / name)


# (label, argv); outputs go to the relative directory out/.
COMMANDS = (
    ("construct_hgp_toric", ["construct", "hgp", "--c1", _f("rep3.pcm"), "--c2", _f("rep3.pcm"),
                             "--out-prefix", "out/toric"]),
    ("construct_lp", ["construct", "lp", "--m1", _f("rep3_z3.ring"), "--m2", _f("rep3_z3.ring"),
                      "--out-prefix", "out/lp"]),
    ("construct_bp", ["construct", "bp", "--graph-a", _f("lift_1px_z3.graph"),
                      "--graph-b", _f("lift_1px_z3.graph"),
                      "--action-a", _f("bp_a_z3.action.json"),
                      "--action-b", _f("bp_b_z3.action.json"), "--out-prefix", "out/bp"]),
    ("analyze_toric", ["analyze", "--hx", "out/toric.hx.pcm", "--hz", "out/toric.hz.pcm",
                       "--c1", _f("rep3.pcm"), "--c2", _f("rep3.pcm")]),
    ("layout_toric_svg", ["layout", "--input", "out/toric.layout.json", "--format", "svg",
                          "--out", "out/toric.svg"]),
    ("layout_graph_tikz", ["layout", "--graph", _f("lift_1px_z3.graph"), "--format", "tikz",
                           "--out", "out/lift.tex"]),
    ("verify_covering", ["verify", "covering", "--cover", _f("line3_2lift.graph"),
                         "--base", _f("line3.graph"), "--map", _f("line3_2lift.map.json")]),
    ("verify_action", ["verify", "action", "--graph", _f("cycle6.graph"),
                       "--action", _f("cycle6_z3.action.json")]),
    ("construct_hgp_hamming_rep3", ["construct", "hgp", "--c1", _f("hamming74.pcm"),
                                    "--c2", _f("rep3.pcm"), "--out-prefix", "out/ham"]),
    ("analyze_hamming_alist", ["analyze", "--hx", "out/ham.hx.alist", "--hz", "out/ham.hz.alist",
                               "--c1", _f("hamming74.pcm"), "--c2", _f("rep3.pcm")]),
    ("analyze_budget_refused", ["analyze", "--hx", "out/toric.hx.pcm",
                                "--hz", "out/toric.hz.pcm", "--budget", "1"]),
    ("layout_lp_tikz", ["layout", "--input", "out/lp.layout.json", "--format", "tikz",
                        "--out", "out/lp.tex"]),
    ("layout_graph_dot_edges", ["layout", "--graph", _f("lift_1px_z3.graph"), "--format", "dot",
                                "--edges"]),
    ("verify_covering_violation", ["verify", "covering", "--cover", _f("line3_2lift.graph"),
                                   "--base", _f("line3.graph"),
                                   "--map", _f("line3_2lift_bad.map.json")]),
    ("verify_action_not_free", ["verify", "action", "--graph", _f("b4.graph"),
                                "--action", _f("b4_z3.action.json")]),
    ("verify_action_not_free_lenient", ["verify", "action", "--graph", _f("b4.graph"),
                                        "--action", _f("b4_z3.action.json"), "--lenient"]),
    ("verify_action_s3", ["verify", "action", "--graph", _f("s3_lift.graph"),
                          "--action", _f("s3_lift.action.json")]),
    ("layout_lp_svg_edges_overlay", ["layout", "--input", "out/lp.layout.json", "--format", "svg",
                                     "--edges", "--overlay", _f("zyx.overlay.json")]),
    ("layout_lp_tikz_edges_overlay", ["layout", "--input", "out/lp.layout.json", "--format", "tikz",
                                      "--edges", "--overlay", _f("zyx.overlay.json")]),
    ("layout_lp_dot_edges_overlay", ["layout", "--input", "out/lp.layout.json", "--format", "dot",
                                     "--edges", "--overlay", _f("zyx.overlay.json")]),
    ("layout_toric_tikz_overlay", ["layout", "--input", "out/toric.layout.json", "--format", "tikz",
                                   "--overlay", _f("zyx.overlay.json")]),
    ("layout_toric_dot_overlay", ["layout", "--input", "out/toric.layout.json", "--format", "dot",
                                  "--overlay", _f("zyx.overlay.json")]),
    ("construct_hgp_rep3_k4", ["construct", "hgp", "--c1", _f("rep3.pcm"), "--c2", _f("k4.pcm"),
                               "--out-prefix", "out/k4"]),
    ("analyze_rep3_k4", ["analyze", "--hx", "out/k4.hx.pcm", "--hz", "out/k4.hz.pcm",
                         "--c1", _f("rep3.pcm"), "--c2", _f("k4.pcm")]),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(workdir: Path) -> dict:
    """Run COMMANDS in order inside `workdir`; return the manifest."""
    from qpc.cli import main

    manifest = {}
    before = set()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv in COMMANDS:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            files = {str(p.relative_to(workdir)): p for p in workdir.rglob("*") if p.is_file()}
            written = sorted(set(files) - before)
            before |= set(written)
            manifest[label] = {
                "exit": code,
                "stdout": _sha(out.getvalue().encode()),
                "stderr": _sha(err.getvalue().encode()),
                "files": {name: _sha(files[name].read_bytes()) for name in written},
            }
    finally:
        os.chdir(cwd)
    return manifest


def test_readme_commands_match_golden_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text())
    got = run_commands(tmp_path)
    assert list(got) == list(want)
    for label in want:
        assert got[label] == want[label], label


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(run_commands(Path(tmp)), sys.stdout, indent=1, sort_keys=False)
        sys.stdout.write("\n")
