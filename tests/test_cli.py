import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpc
from qpc import analysis, classical, gf2, products
from qpc.cli import main
from qpc.errors import BudgetError, FormatError, PreconditionError

from oracles import repetition_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(cwd, *argv, address_space: int | None = None):
    """The CLI in a fresh interpreter, so a traceback would reach stderr.

    With `address_space`, the child's RLIMIT_AS is capped at that many bytes.
    """
    env, limit = {**os.environ, "PYTHONPATH": str(SRC)}, None
    if address_space is not None:
        resource = pytest.importorskip("resource")
        env["OPENBLAS_NUM_THREADS"] = "1"  # per-thread BLAS buffers count against the cap

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "qpc.cli", *map(str, argv)],
        cwd=cwd, capture_output=True, text=True, timeout=120, preexec_fn=limit, env=env,
    )


class TestConstruct:
    def test_hgp_toric(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "toric",
        )
        assert code == 0
        assert "n: 18" in out
        assert "m_x: 9" in out and "m_z: 9" in out
        assert "commuting: True" in out
        for suffix in ("hx.pcm", "hx.alist", "hz.pcm", "hz.alist", "layout.json"):
            assert (tmp_path / f"toric.{suffix}").exists()

    @pytest.mark.parametrize("c1, c2", [("0 3\n", "rep3"), ("rep3", "2 0\n\n\n"),
                                        ("0 3\n", "2 0\n\n\n"), ("0 0\n", "0 0\n")],
                             ids=["0x3-rep3", "rep3-2x0", "0x3-2x0", "0x0-0x0"])
    def test_hgp_of_factors_without_rows_or_columns(self, tmp_path, capsys, c1, c2):
        # n = n1 n2 + m1 m2 qubits; H_X has m1 n2 rows, H_Z n1 m2, each read back alike
        paths = []
        for i, c in enumerate((c1, c2)):
            paths.append(FIXTURES / f"{c}.pcm" if c == "rep3" else tmp_path / f"c{i}.pcm")
            if c != "rep3":
                paths[-1].write_text(c)
        (m1, n1), (m2, n2) = (classical.read_check_matrix(str(p)).shape for p in paths)
        code, out, _ = run(capsys, "construct", "hgp", "--c1", paths[0], "--c2", paths[1],
                           "--out-prefix", tmp_path / "code")
        assert code == 0 and f"n: {n1 * n2 + m1 * m2}\n" in out
        for side, rows in (("hx", m1 * n2), ("hz", n1 * m2)):
            pcm, alist = (classical.read_check_matrix(str(tmp_path / f"code.{side}.{ext}"))
                          for ext in ("pcm", "alist"))
            assert pcm == alist and pcm.shape == (rows, n1 * n2 + m1 * m2)
        assert (tmp_path / "code.layout.json").exists()

    def test_lp_z1_equals_hgp_bit_exact(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "construct", "lp",
            "--m1", FIXTURES / "rep3_z1.ring",
            "--m2", FIXTURES / "rep3_z1.ring",
            "--out-prefix", tmp_path / "lp1",
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "hgp1",
        )
        assert code == 0
        assert (tmp_path / "lp1.hx.pcm").read_bytes() == (
            tmp_path / "hgp1.hx.pcm"
        ).read_bytes()
        assert (tmp_path / "lp1.hz.pcm").read_bytes() == (
            tmp_path / "hgp1.hz.pcm"
        ).read_bytes()

    def test_lp_z3(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "construct", "lp",
            "--m1", FIXTURES / "rep3_z3.ring",
            "--m2", FIXTURES / "rep3_z3.ring",
            "--out-prefix", tmp_path / "lp",
        )
        assert code == 0
        assert "n: 6" in out

    def test_bp_matches_lp(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "construct", "bp",
            "--graph-a", FIXTURES / "lift_1px_z3.graph",
            "--graph-b", FIXTURES / "lift_1px_z3.graph",
            "--action-a", FIXTURES / "bp_a_z3.action.json",
            "--action-b", FIXTURES / "bp_b_z3.action.json",
            "--out-prefix", tmp_path / "bp",
        )
        assert code == 0
        assert "n: 6" in out
        run(
            capsys,
            "construct", "lp",
            "--m1", FIXTURES / "rep3_z3.ring",
            "--m2", FIXTURES / "rep3_z3.ring",
            "--out-prefix", tmp_path / "lp",
        )
        assert (tmp_path / "bp.hx.pcm").read_bytes() == (
            tmp_path / "lp.hx.pcm"
        ).read_bytes()

    def test_bp_nonfree_action_exits_2(self, tmp_path, capsys):
        # the K4 rotation fixes vertex 3, but bp needs Tanner inputs;
        # build a Tanner action with a fixed check instead
        graph = "checks 2 bits 2\nc0 b0\nc0 b1\nc1 b0\nc1 b1\n"
        action = json.dumps(
            {"group": "Z2", "generators": [{"check_perm": [0, 1], "bit_perm": [1, 0]}]}
        )
        (tmp_path / "g.graph").write_text(graph)
        (tmp_path / "a.json").write_text(action)
        code, _, err = run(
            capsys,
            "construct", "bp",
            "--graph-a", tmp_path / "g.graph",
            "--graph-b", tmp_path / "g.graph",
            "--action-a", tmp_path / "a.json",
            "--action-b", tmp_path / "a.json",
            "--out-prefix", tmp_path / "bp",
        )
        assert code == 2
        assert "witness" in err

    def test_missing_option_is_parse_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "x",
        )
        assert code == 1
        assert "--c2" in err

    def test_determinism(self, tmp_path, capsys):
        for prefix in ("one", "two"):
            run(
                capsys,
                "construct", "lp",
                "--m1", FIXTURES / "rep3_z3.ring",
                "--m2", FIXTURES / "rep3_z3.ring",
                "--out-prefix", tmp_path / prefix,
            )
        for suffix in ("hx.pcm", "hx.alist", "hz.pcm", "hz.alist", "layout.json"):
            assert (tmp_path / f"one.{suffix}").read_bytes() == (
                tmp_path / f"two.{suffix}"
            ).read_bytes()


class TestAnalyze:
    def build_toric(self, tmp_path, capsys):
        run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "toric",
        )

    @pytest.mark.parametrize("checks", ["anticommuting", "refused", "decided"])
    @pytest.mark.parametrize("factor", ["missing", "malformed"])
    def test_bad_cross_check_file_is_refused_before_analysis(self, tmp_path, capsys,
                                                             checks, factor):
        # --c1 and --c2 are read with --hx and --hz, so whatever the checks would
        # give (a report, exit 3 or a distance), a bad factor file exits 1 first
        self.build_toric(tmp_path, capsys)
        (tmp_path / "x12.pcm").write_text("1 2\n1 1\n")
        (tmp_path / "z12.pcm").write_text("1 2\n1 0\n")
        (tmp_path / "malformed.pcm").write_text("1 2\n1\n")
        hx, hz, extra = {"anticommuting": ("x12", "z12", []),
                         "refused": ("toric.hx", "toric.hz", ["--budget", "1"]),
                         "decided": ("toric.hx", "toric.hz", [])}[checks]
        bad = tmp_path / f"{factor}.pcm"
        for c1, c2 in ((bad, FIXTURES / "rep3.pcm"), (FIXTURES / "rep3.pcm", bad)):
            code, out, err = run(capsys, "analyze", "--hx", tmp_path / f"{hx}.pcm",
                                 "--hz", tmp_path / f"{hz}.pcm", "--c1", c1, "--c2", c2, *extra)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1 and str(bad) in err, err

    def test_toric_report(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "--json-out", tmp_path / "report.json",
            "analyze",
            "--hx", tmp_path / "toric.hx.pcm",
            "--hz", tmp_path / "toric.hz.pcm",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
        )
        assert code == 0
        assert "params: [[18,2,3]]" in out
        assert "hgp_k_matches: True" in out
        assert "seed: 0" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["k"] == 2 and report["d"] == 3
        assert report["hgp_distance_bound"] == 3

    def test_planar_report(self, tmp_path, capsys):
        # open 3-bit repetition codes: the planar code, a graph code read from alist and pcm
        (tmp_path / "path3.pcm").write_text("2 3\n1 1 0\n0 1 1\n")
        codes = ["--c1", tmp_path / "path3.pcm", "--c2", tmp_path / "path3.pcm"]
        assert run(capsys, "construct", "hgp", *codes, "--out-prefix", tmp_path / "planar")[0] == 0
        code, out, _ = run(capsys, "analyze", "--hx", tmp_path / "planar.hx.alist",
                           "--hz", tmp_path / "planar.hz.pcm", *codes)
        assert code == 0
        assert "params: [[13,1,3]]\n" in out and "hgp_k_matches: True\n" in out

    def test_budget_exit_code(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "toric.hx.pcm",
            "--hz", tmp_path / "toric.hz.pcm",
            "--budget", "4",
        )
        assert code == 3
        assert "budget exceeded" in out

    def test_qpc_budget_env_is_ignored(self, tmp_path, capsys, monkeypatch):
        # --budget is the one setter of the cap: QPC_BUDGET no longer refuses the toric code
        self.build_toric(tmp_path, capsys)
        monkeypatch.setenv("QPC_BUDGET", "4")
        code, out, _ = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "toric.hx.pcm",
            "--hz", tmp_path / "toric.hz.pcm",
        )
        assert code == 0
        assert "params: [[18,2,3]]" in out

    def test_alist_inputs(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        code, out, _ = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "toric.hx.alist",
            "--hz", tmp_path / "toric.hz.alist",
        )
        assert code == 0
        assert "params: [[18,2,3]]" in out

    def test_alist_wrong_maximum_degrees_exit_1(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        path = tmp_path / "toric.hx.alist"
        lines = path.read_text().split("\n")
        assert lines[1] == "2 4"
        path.write_text("\n".join([lines[0], "2 5", *lines[2:]]))
        result = run_process(tmp_path, "analyze", "--hx", path, "--hz", tmp_path / "toric.hz.alist")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}: line 2: maximum degrees 2 5, degree lists give 2 4\n")

    def test_checkless_code(self, tmp_path, capsys):
        (tmp_path / "empty.pcm").write_text("0 3\n")
        code, out, _ = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "empty.pcm",
            "--hz", tmp_path / "empty.pcm",
        )
        assert code == 0
        assert "k: 3" in out

    def test_noncommuting_refusal(self, tmp_path, capsys):
        (tmp_path / "hx.pcm").write_text("1 2\n1 1\n")
        (tmp_path / "hz.pcm").write_text("1 2\n1 0\n")
        code, out, _ = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "hx.pcm",
            "--hz", tmp_path / "hz.pcm",
        )
        assert code == 0
        assert "commuting: False" in out
        assert "refused" in out

    def test_invalid_budget_exits_1(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "toric.hx.pcm",
            "--hz", tmp_path / "toric.hz.pcm",
            "--budget", "-3",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "non-negative integer" in err and "Traceback" not in err

    def test_mismatched_widths_exit_1(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "toric.hx.pcm",
            "--hz", FIXTURES / "hamming74.pcm",
        )
        assert code == 1
        assert out == ""
        assert err == "error: H_X has 18 columns but H_Z has 7\n"


    def test_negative_pcm_header_exits_1(self, tmp_path, capsys):
        (tmp_path / "neg.pcm").write_text("-1 3\n")
        code, out, err = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "neg.pcm",
            "--hz", tmp_path / "neg.pcm",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path / 'neg.pcm'}: line 1: expected non-negative header 'm n'\n"

    def test_huge_pcm_header_exits_1_without_traceback(self, tmp_path):
        (tmp_path / "huge.pcm").write_text("0 99999999999999999999\n")
        proc = run_process(tmp_path, "analyze", "--hx", "huge.pcm", "--hz", "huge.pcm")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: huge.pcm: line 1: header 'm n' exceeds the largest array dimension\n"
        )

    @pytest.mark.parametrize("width, required", [
        (10**15, "2^1000000000000000"),        # 2^width is never built
        (100000, "2^100000"),                   # too many digits to print
        (4000, str(2**4000)),                   # 1205 digits: printed in full
    ])
    def test_wide_empty_code_is_refused_by_budget(self, tmp_path, width, required):
        (tmp_path / "wide.pcm").write_text(f"0 {width}\n")
        proc = run_process(tmp_path, "analyze", "--hx", "wide.pcm", "--hz", "wide.pcm")
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-2:] == [
            f"k: {width}", f"d: budget exceeded ({required} > 16777216)"]

    def test_classical_refusal_beyond_decimal_limit(self, tmp_path, capsys):
        self.build_toric(tmp_path, capsys)
        (tmp_path / "wide.pcm").write_text("0 100000\n")
        proc = run_process(
            tmp_path, "analyze", "--hx", "toric.hx.pcm", "--hz", "toric.hz.pcm",
            "--c1", "wide.pcm", "--c2", "wide.pcm",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "budget exceeded: distance enumeration refused:"
            " needs 2^100000 steps, limit is 16777216\n"
        )

    @pytest.mark.parametrize("option, refused", [("1024", True), ("4096", False), ("0", False)])
    def test_budget_bounds_the_cross_check(self, tmp_path, capsys, option, refused):
        # The toric kernels have dimension 10, the 12-bit checkless code k = 12;
        # --budget 0 is the default cap, 2^24.
        self.build_toric(tmp_path, capsys)
        (tmp_path / "wide.pcm").write_text("0 12\n")
        code, out, err = run(
            capsys, "analyze", "--hx", tmp_path / "toric.hx.pcm", "--hz", tmp_path / "toric.hz.pcm",
            "--c1", tmp_path / "wide.pcm", "--c2", FIXTURES / "rep3.pcm", "--budget", option,
        )
        if refused:
            assert (code, out) == (3, "")
            assert err == ("budget exceeded: distance enumeration refused:"
                           " needs 4096 steps, limit is 1024\n")
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == "hgp_distance_bound: 1"

    def test_degenerate_lifted_product_files_read_back(self, tmp_path, capsys):
        # a 0 x 1 ring matrix gives check matrices with no rows
        (tmp_path / "empty.ring").write_text("0 1 group=Z3\n")
        code, out, _ = run(
            capsys,
            "construct", "lp",
            "--m1", tmp_path / "empty.ring",
            "--m2", tmp_path / "empty.ring",
            "--out-prefix", tmp_path / "lp",
        )
        assert code == 0 and "m_x: 0" in out
        for ext in ("alist", "pcm"):
            code, out, err = run(
                capsys, "analyze", "--hx", tmp_path / f"lp.hx.{ext}",
                "--hz", tmp_path / f"lp.hz.{ext}",
            )
            assert (code, err) == (0, "")
            assert "params: [[3,3,1]]" in out

    @pytest.mark.parametrize("extra, exit_code", [([], 0), (["--budget", "1"], 3)])
    def test_each_check_matrix_reduced_once(self, tmp_path, capsys, monkeypatch,
                                            extra, exit_code):
        self.build_toric(tmp_path, capsys)
        h_x = classical.parse_pcm_text((tmp_path / "toric.hx.pcm").read_text())
        h_z = classical.parse_pcm_text((tmp_path / "toric.hz.pcm").read_text())
        assert h_x != h_z
        reduced = []
        originals = (gf2._kernel, gf2.rref)             # each reduces a matrix

        for module in (gf2, classical, products, analysis, qpc):
            for name, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, name,
                                        lambda m, f=value: reduced.append((f.__name__, m)) or f(m))
        code, out, _ = run(
            capsys,
            "analyze",
            "--hx", tmp_path / "toric.hx.pcm",
            "--hz", tmp_path / "toric.hz.pcm",
            *extra,
        )
        assert code == exit_code
        assert ("params: [[18,2,3]]" in out) == (exit_code == 0)
        # a refusal is read off the component ranks, so it reduces nothing; a
        # toric distance is a shortest cycle, labelled by the opposite logicals,
        # so each direction reduces its stabiliser once, for its kernel, and no
        # run calls rref
        assert reduced == [("_kernel", h_z), ("_kernel", h_x)] * (exit_code == 0)

    @pytest.mark.parametrize("cross_check, forests", [(False, 2), (True, 6)])
    def test_each_check_matrix_builds_one_forest(self, tmp_path, capsys, monkeypatch,
                                                 cross_check, forests):
        # rank, the classical cycle labels and the shortest cycle read one spanning
        # forest per matrix: H_X and H_Z, and with --c1/--c2 also c1, c2, c1^T and
        # c2^T; a CSS direction labels its cycles by its reduced stabiliser, with no
        # forest of it, and a classical code has no stabiliser, so it labels the
        # columns off its checks' forest
        self.build_toric(tmp_path, capsys)
        built = []
        original = gf2._forest
        monkeypatch.setattr(gf2, "_forest", lambda m: built.append(m) or original(m))
        codes = ["--c1", FIXTURES / "rep3.pcm", "--c2", FIXTURES / "rep3.pcm"] * cross_check
        code, out, _ = run(capsys, "analyze", "--hx", tmp_path / "toric.hx.pcm",
                           "--hz", tmp_path / "toric.hz.pcm", *codes)
        assert code == 0 and "params: [[18,2,3]]" in out
        assert len(built) == forests
        assert len(set(map(id, built))) == forests      # no matrix is read twice

    def test_refused_toric_16_eliminates_nothing(self, tmp_path, capsys, monkeypatch):
        rep = classical.ClassicalCode(repetition_check(16))
        code = products.hgp(rep, rep)
        (tmp_path / "hx.pcm").write_text(classical.emit_pcm_text(code.h_x))
        (tmp_path / "hz.pcm").write_text(classical.emit_pcm_text(code.h_z))
        original = gf2.rref

        def refuse(m):
            raise AssertionError(f"{m} was eliminated")

        for name, module in list(sys.modules.items()):
            if name == "qpc" or name.startswith("qpc."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        assert gf2.rref is refuse and not hasattr(classical, "rref")
        code, out, err = run(capsys, "analyze", "--hx", tmp_path / "hx.pcm",
                             "--hz", tmp_path / "hz.pcm")
        assert (code, err) == (3, "")
        # the bytes the elimination-based refusal printed: each kernel has dimension 257
        assert out == ("seed: 0\nn: 512\ncommuting: True\nk: 2\n"
                       f"d: budget exceeded ({2**257} > 16777216)\n")


class TestLayout:
    def test_render_formats(self, tmp_path, capsys):
        run(
            capsys,
            "construct", "lp",
            "--m1", FIXTURES / "rep3_z3.ring",
            "--m2", FIXTURES / "rep3_z3.ring",
            "--out-prefix", tmp_path / "lp",
        )
        for fmt, marker in (
            ("svg", "<svg"),
            ("tikz", "tikzpicture"),
            ("dot", "graph layout"),
        ):
            code, _, _ = run(
                capsys,
                "layout",
                "--input", tmp_path / "lp.layout.json",
                "--format", fmt,
                "--out", tmp_path / f"fig.{fmt}",
            )
            assert code == 0
            assert marker in (tmp_path / f"fig.{fmt}").read_text()

    def test_json_roundtrip_via_cli(self, tmp_path, capsys):
        run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "toric",
        )
        code, _, _ = run(
            capsys,
            "layout",
            "--input", tmp_path / "toric.layout.json",
            "--format", "json",
            "--out", tmp_path / "round.json",
        )
        assert code == 0
        assert (tmp_path / "round.json").read_bytes() == (
            tmp_path / "toric.layout.json"
        ).read_bytes()

    def test_graph_line_layout(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "layout",
            "--graph", FIXTURES / "lift_1px_z3.graph",
            "--format", "svg",
        )
        assert code == 0
        assert out.count("<circle") == 3  # three bits on the line
        assert out.count("<rect") == 3    # three checks

    def test_overlay(self, tmp_path, capsys):
        run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "toric",
        )
        (tmp_path / "ov.json").write_text(
            json.dumps({"paulis": [[0, "Z"], [3, "Z"], [6, "Z"]]})
        )
        code, _, _ = run(
            capsys,
            "layout",
            "--input", tmp_path / "toric.layout.json",
            "--format", "svg",
            "--overlay", tmp_path / "ov.json",
            "--out", tmp_path / "fig.svg",
        )
        assert code == 0
        assert (tmp_path / "fig.svg").read_text().count('fill="red"') == 3


    @pytest.mark.parametrize("overlay", [
        {"paulis": 5},
        {"paulis": [[0]]},
        {"paulis": [["a", "Z"]]},
        [[0, "Z"]],
        "not json",
    ])
    def test_malformed_overlay_exits_1(self, tmp_path, capsys, overlay):
        run(
            capsys,
            "construct", "hgp",
            "--c1", FIXTURES / "rep3.pcm",
            "--c2", FIXTURES / "rep3.pcm",
            "--out-prefix", tmp_path / "toric",
        )
        text = overlay if isinstance(overlay, str) else json.dumps(overlay)
        (tmp_path / "ov.json").write_text(text)
        code, out, err = run(
            capsys,
            "layout",
            "--input", tmp_path / "toric.layout.json",
            "--format", "svg",
            "--overlay", tmp_path / "ov.json",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("vertex", [
        {"index": 0, "coord": [0, 0]},
        {"role": "x", "coord": [0, 0]},
        {"role": "x", "index": 0, "coord": 5},
        {"role": ["x"], "index": 0, "coord": [0, 0]},
        "x",
    ])
    def test_malformed_layout_vertex_exits_1(self, tmp_path, capsys, vertex):
        layout = {"version": "qpc-layout/1", "kind": "2d", "vertices": [vertex]}
        (tmp_path / "bad.json").write_text(json.dumps(layout))
        code, out, err = run(
            capsys,
            "layout",
            "--input", tmp_path / "bad.json",
            "--format", "svg",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


class TestVerify:
    def test_two_lift_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "covering",
            "--cover", FIXTURES / "line3_2lift.graph",
            "--base", FIXTURES / "line3.graph",
            "--map", FIXTURES / "line3_2lift.map.json",
        )
        assert code == 0
        assert "valid: True" in out
        assert "lift_size: 2" in out

    def test_corrupted_map_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "covering",
            "--cover", FIXTURES / "line3_2lift.graph",
            "--base", FIXTURES / "line3.graph",
            "--map", FIXTURES / "line3_2lift_bad.map.json",
        )
        assert code == 2
        assert "valid: False" in out
        assert "vertex" in out

    def test_identity_covering(self, tmp_path, capsys):
        (tmp_path / "id.map.json").write_text(json.dumps({"vertex_map": [0, 1, 2]}))
        code, out, _ = run(
            capsys,
            "verify", "covering",
            "--cover", FIXTURES / "line3.graph",
            "--base", FIXTURES / "line3.graph",
            "--map", tmp_path / "id.map.json",
        )
        assert code == 0
        assert "lift_size: 1" in out

    @pytest.mark.parametrize("checks", [2, 9 * 10**18])
    def test_base_vertex_outside_the_image_leaves_no_lift_size(self, tmp_path, capsys, checks):
        # a base part of any declared size: only the base vertices a map reaches are counted
        (tmp_path / "cover.graph").write_text("checks 1 bits 1\nc0 b0\n")
        (tmp_path / "base.graph").write_text(f"checks {checks} bits 1\nc0 b0\n")
        (tmp_path / "map.json").write_text('{"check_map": [0], "bit_map": [0]}')
        code, out, err = run(capsys, "verify", "covering", "--cover", tmp_path / "cover.graph",
                             "--base", tmp_path / "base.graph", "--map", tmp_path / "map.json")
        assert (code, err) == (0, "")
        assert out == "check: covering\nvalid: True\nlift_size: None\nviolations: []\n"

    def test_table_paths_are_read_beside_the_file(self, tmp_path, capsys, monkeypatch):
        # an action file and a ring file name their `table:` group by a path
        # relative to their own directory, whatever the working directory
        ring_dir, elsewhere = tmp_path / "rings", tmp_path / "elsewhere"
        ring_dir.mkdir()
        elsewhere.mkdir()
        (ring_dir / "s3.table").write_bytes((FIXTURES / "s3.table").read_bytes())
        (ring_dir / "s3.ring").write_text("1 2 group=table:s3.table\ng1+g2,1\n")
        monkeypatch.chdir(elsewhere)
        code, out, err = run(capsys, "verify", "action", "--graph", FIXTURES / "s3_lift.graph",
                             "--action", FIXTURES / "s3_lift.action.json")
        assert (code, err) == (0, "") and "free: True" in out
        code, out, err = run(capsys, "construct", "lp", "--m1", "../rings/s3.ring",
                             "--m2", ring_dir / "s3.ring", "--out-prefix", "lp")
        assert (code, err) == (0, "") and "n: 30" in out
        assert (elsewhere / "lp.hx.pcm").exists()

    def test_free_action_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "action",
            "--graph", FIXTURES / "cycle6.graph",
            "--action", FIXTURES / "cycle6_z3.action.json",
        )
        assert code == 0
        assert "free: True" in out
        assert "vertex_classes: 2" in out

    @pytest.mark.parametrize("perm, message", [
        ([1, 2], "vertex permutation has 2 entries, expected 4"),
        ([1, 2, 0, 3, 3], "vertex permutation has 5 entries, expected 4"),
        ([1, 2, 0, 4], "vertex permutation entry 4 is not in 0..3"),
        ([1, 2, 0, -1], "vertex permutation entry -1 is not in 0..3"),
    ])
    @pytest.mark.parametrize("form", ["generators", "elements"])
    def test_malformed_permutation_exits_2(self, tmp_path, perm, message, form):
        perms = [{"vertex_perm": perm}]
        if form == "elements":   # a valid identity first, so the bad list is element 1
            perms.insert(0, {"vertex_perm": [0, 1, 2, 3]})
            perms.append({"vertex_perm": [2, 0, 1, 3]})
        (tmp_path / "bad.action.json").write_text(json.dumps({"group": "Z3", form: perms}))
        proc = run_process(
            tmp_path, "verify", "action",
            "--graph", FIXTURES / "b4.graph", "--action", "bad.action.json",
        )
        where = "generator 0" if form == "generators" else "element 1"
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"precondition violated: {where}: {message}\n"

    def test_fixed_vertex_action_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "action",
            "--graph", FIXTURES / "b4.graph",
            "--action", FIXTURES / "b4_z3.action.json",
        )
        assert code == 2
        assert "free: False" in out
        assert "free_witness" in out and "3" in out


class TestGroupSpecs:
    @pytest.mark.parametrize("spec", ["Z0", "Z2xZ0", "Z0xZ3"])
    @pytest.mark.parametrize("kind", ["ring", "action"])
    def test_zero_order_factor_exits_1_naming_the_file(self, tmp_path, spec, kind):
        if kind == "ring":
            (tmp_path / "g.ring").write_text(f"1 1 group={spec}\n1\n")
            argv = ["construct", "lp", "--m1", "g.ring", "--m2", "g.ring", "--out-prefix", "lp"]
        else:
            (tmp_path / "g.action").write_text(json.dumps({"group": spec, "generators": []}))
            argv = ["verify", "action", "--graph", FIXTURES / "cycle6.graph", "--action", "g.action"]
        proc = run_process(tmp_path, *argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: g.{kind}: group spec {spec!r}"
                               " has a cyclic factor of order 0\n")


    def test_each_command_builds_its_group_once(self, tmp_path, capsys, monkeypatch):
        # both ring files name Z3: one table per command, also for a second command
        # in the same process, so in-process timings compare with fresh processes
        from qpc.groups import FiniteGroup

        built, cyclic = [], FiniteGroup.cyclic.__func__
        monkeypatch.setattr(FiniteGroup, "cyclic",
                            classmethod(lambda cls, l: built.append(l) or cyclic(cls, l)))
        for k in range(2):
            code, _, _ = run(capsys, "construct", "lp", "--m1", FIXTURES / "rep3_z3.ring",
                             "--m2", FIXTURES / "rep3_z3.ring", "--out-prefix", tmp_path / f"lp{k}")
            assert code == 0 and built == [3] * (k + 1)


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_each_command_pauses_the_collector_and_restores_it(self, capsys, monkeypatch,
                                                               enabled):
        # a handler runs with the collector off; after each exit code the caller's
        # setting is back, whether it was on or off
        outcomes = [0, FormatError("bad"), PreconditionError("bad"), BudgetError("walk", 30, 2)]
        seen = []

        def handler(outcome):
            def run_handler(args):
                seen.append(gc.isenabled())
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome
            return run_handler

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for code, outcome in enumerate(outcomes):
                monkeypatch.setattr("qpc.cli.cmd_analyze", handler(outcome))
                assert run(capsys, "analyze", "--hx", "x", "--hz", "x")[0] == code
                assert gc.isenabled() is enabled
                assert gc.get_freeze_count() == 0  # only the program entry, `run`, freezes
            assert run(capsys, "analyze", "--hx", "x")[0] == 1  # a usage error
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == 0
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * len(outcomes)


def toric_files(root: Path) -> tuple[Path, Path]:
    """The toric code's H_X and H_Z as plain PCM files under `root`."""
    assert main(["construct", "hgp", "--c1", str(FIXTURES / "rep3.pcm"),
                 "--c2", str(FIXTURES / "rep3.pcm"), "--out-prefix", str(root / "toric")]) == 0
    return root / "toric.hx.pcm", root / "toric.hz.pcm"


class TestExitPath:
    """`python -m qpc.cli` runs `run`: `main`, then the heap frozen for exit."""

    COVER = ["verify", "covering", "--cover", FIXTURES / "line3_2lift.graph",
             "--base", FIXTURES / "line3.graph", "--map"]

    @pytest.mark.parametrize("exit_code", [0, 1, 2, 3])
    def test_program_matches_main(self, tmp_path, capsys, exit_code):
        h_x, h_z = toric_files(tmp_path)
        capsys.readouterr()
        argv = {0: ["analyze", "--hx", h_x, "--hz", h_z],
                1: ["analyze", "--hx", h_x],                                # a usage error
                2: [*self.COVER, FIXTURES / "line3_2lift_bad.map.json"],
                3: ["analyze", "--hx", h_x, "--hz", h_z, "--budget", "2"]}[exit_code]
        in_process = run(capsys, *argv)
        program = run_process(tmp_path, *argv)
        assert in_process[0] == exit_code
        assert (program.returncode, program.stdout, program.stderr) == in_process

    def test_atexit_handlers_still_run(self, tmp_path):
        # the handler runs after the freeze, and the exit code is the command's
        argv = [*self.COVER, FIXTURES / "line3_2lift_bad.map.json"]
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print('atexit, frozen:', gc.get_freeze_count() > 0))\n"
                  f"sys.argv = ['qpc', *{[str(a) for a in argv]!r}]\n"
                  "runpy.run_module('qpc.cli', run_name='__main__')\n")
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                                text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 2, result.stderr
        assert result.stdout.startswith("check: covering\n")
        assert result.stdout.endswith("\natexit, frozen: True\n")


class TestLocale:
    """Input files are read as UTF-8 whatever the locale."""

    @staticmethod
    def run_in_c_locale(cwd, utf8_mode: int, *argv):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-X", f"utf8={utf8_mode}", *map(str, argv)],
            cwd=cwd, capture_output=True, text=True, timeout=120, env=env)

    def test_c_locale_is_ascii(self, tmp_path):
        # otherwise the test below would read its files as UTF-8 either way
        result = self.run_in_c_locale(
            tmp_path, 0, "-c", "import locale; print(locale.getpreferredencoding(False))")
        assert result.stdout.strip().lower().replace("-", "") != "utf8"

    def test_unicode_separators_read_alike(self, tmp_path, capsys):
        # U+00A0 separates entries and U+2028 ends lines, in a PCM and in an alist file
        h_x, h_z = toric_files(tmp_path)
        capsys.readouterr()
        code, plain, _ = run(capsys, "analyze", "--hx", h_x, "--hz", h_z)
        assert code == 0
        for path in (h_x, tmp_path / "toric.hz.alist"):
            text = path.read_text(encoding="utf-8")
            (tmp_path / f"wide.{path.name}").write_text(
                text.replace(" ", "\u00a0").replace("\n", "\u2028"), encoding="utf-8")
        argv = ["-m", "qpc.cli", "analyze", "--hx", tmp_path / "wide.toric.hx.pcm",
                "--hz", tmp_path / "wide.toric.hz.alist"]
        for utf8_mode in (0, 1):
            result = self.run_in_c_locale(tmp_path, utf8_mode, *argv)
            assert (result.returncode, result.stdout, result.stderr) == (0, plain, "")


class TestResourceTraps:
    """A header that names a huge size is refused before anything that size is built.

    Each command runs in a child capped at 512 MiB of address space, so a
    refusal that comes too late ends there in a MemoryError and a traceback,
    and never takes the memory of the host.
    """

    CAP = 512 * 2**20

    @pytest.mark.parametrize("spec, order", [
        ("Z100000", 100000), ("Z1000xZ1000", 1000000), ("Z2049", 2049), ("Z2xZ1025", 2050),
    ])
    def test_group_past_the_order_limit_exits_1(self, tmp_path, spec, order):
        (tmp_path / "big.ring").write_text(f"1 1 group={spec}\n1\n")
        proc = run_process(tmp_path, "construct", "lp", "--m1", "big.ring", "--m2", "big.ring",
                           "--out-prefix", "lp", address_space=self.CAP)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: big.ring: group order {order} exceeds the limit 2048\n"

    def test_line_layout_past_the_vertex_limit_exits_2(self, tmp_path):
        (tmp_path / "huge.graph").write_text("checks 1000000000000 bits 1\n")
        proc = run_process(tmp_path, "layout", "--graph", "huge.graph", "--format", "svg",
                           address_space=self.CAP)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("precondition violated: line layout of 1000000000001 vertices"
                               " exceeds the limit 1048576\n")


class TestUsageErrors:
    """Each usage error exits 1 with one `error:` line: no usage text, no traceback."""

    F = FIXTURES
    HGP = ["construct", "hgp", "--c1", F / "rep3.pcm", "--c2", F / "rep3.pcm"]
    LP = ["construct", "lp", "--m1", F / "rep3_z3.ring", "--m2", F / "rep3_z3.ring"]
    BP = ["construct", "bp", "--graph-a", F / "lift_1px_z3.graph",
          "--graph-b", F / "lift_1px_z3.graph", "--action-a", F / "bp_a_z3.action.json",
          "--action-b", F / "bp_b_z3.action.json"]
    ANALYZE = ["analyze", "--hx", F / "rep3.pcm", "--hz", F / "rep3.pcm"]
    LAYOUT = ["layout", "--graph", F / "lift_1px_z3.graph", "--format", "svg"]
    COVERING = ["verify", "covering", "--cover", F / "line3_2lift.graph",
                "--base", F / "line3.graph", "--map", F / "line3_2lift.map.json"]
    ACTION = ["verify", "action", "--graph", F / "cycle6.graph",
              "--action", F / "cycle6_z3.action.json"]

    @pytest.mark.parametrize("argv, message", [
        (ANALYZE + ["--budget", "abc"], "qpc analyze: argument --budget: invalid int value: 'abc'"),
        (["frob"], "qpc: argument command: invalid choice: 'frob'"),
        (["construct", "xx", "--out-prefix", "x"], "qpc construct: argument product: invalid choice: 'xx'"),
        (["verify", "both"], "qpc verify: argument check: invalid choice: 'both'"),
        (HGP[:-2], "qpc construct hgp: the following arguments are required: --c2, --out-prefix"),
        (LP[:2] + ["--out-prefix", "x"], "qpc construct lp: the following arguments are required: --m1, --m2"),
        (BP, "qpc construct bp: the following arguments are required: --out-prefix"),
        (ANALYZE[:3], "qpc analyze: the following arguments are required: --hz"),
        (LAYOUT[:3], "qpc layout: the following arguments are required: --format"),
        (COVERING[:-2], "qpc verify covering: the following arguments are required: --map"),
        (ACTION[:4], "qpc verify action: the following arguments are required: --action"),
        (LP + ["--out-prefix", "x", "--c1", "f"], "qpc: unrecognized arguments: --c1 f"),
        (COVERING + ["--lenient"], "qpc: unrecognized arguments: --lenient"),
        (LAYOUT + ["--input", "f"], "qpc layout: argument --input: not allowed with argument --graph"),
        (LAYOUT[:1] + LAYOUT[3:], "qpc layout: one of the arguments --input --graph is required"),
        (ANALYZE + ["--c1", F / "rep3.pcm"], "qpc analyze: --c1 and --c2 must be given together"),
        (ANALYZE + ["--c2", F / "rep3.pcm"], "qpc analyze: --c1 and --c2 must be given together"),
        (ACTION + ["--lenient", "--lenient"], "qpc verify action: argument --lenient: given more than once"),
        (HGP + ["--c1", F / "rep3.pcm"], "qpc construct hgp: argument --c1: given more than once"),
    ])
    def test_exits_1_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "usage:" not in err and "Traceback" not in err

    @pytest.mark.parametrize("option, value", [
        ("--scale", "nan"), ("--scale", "inf"), ("--scale", "-inf"), ("--scale", "0"),
        ("--scale", "-1"), ("--scale", "abc"), ("--shear", "nan"), ("--shear", "inf"),
        ("--shear", "-inf"), ("--yscale", "nan"), ("--yscale", "inf"), ("--yscale", "-inf"),
    ])
    def test_layout_number_out_of_range(self, capsys, option, value):
        kind = "a positive finite" if option == "--scale" else "a finite"
        code, out, err = run(capsys, *self.LAYOUT, f"{option}={value}")
        assert (code, out) == (1, "")
        assert err == f"error: qpc layout: argument {option}: expected {kind} number, got '{value}'\n"

    @pytest.mark.parametrize("option, value", [
        ("--scale", "1e-3"), ("--scale", "40"), ("--shear", "0"), ("--shear", "-0.7"),
        ("--yscale", "0"), ("--yscale", "-2"),
    ])
    def test_layout_finite_numbers_are_accepted(self, capsys, option, value):
        code, out, err = run(capsys, *self.LAYOUT, option, value)
        assert (code, err) == (0, "") and out.startswith("<svg")

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    @pytest.mark.parametrize("option", ["--scale", "--shear", "--yscale"])
    def test_layout_lone_negative_value_is_a_value(self, capsys, option, value):
        # argparse would read a lone "-inf" as an option and say "expected one argument"
        code, out, err = run(capsys, *self.LAYOUT, option, value)
        assert (code, out, err) == run(capsys, *self.LAYOUT, f"{option}={value}")
        assert code == 1 and err.endswith(f"number, got '{value}'\n")

    # x, z and a qubit at depths y = 0, 2, 1: a huge shear or y scale overflows
    LAYOUT_3D = json.dumps({"version": "qpc-layout/1", "kind": "3d", "vertices": [
        {"role": "x", "index": 0, "coord": [0, 0, 0]},
        {"role": "z", "index": 0, "coord": [0, 2, 0]},
        {"role": "q1", "index": 0, "coord": [1, 1, 1]}]})
    # an integer coordinate that no float holds, on the second vertex: 10^400 is beyond
    # every float, and 2^53 + 1 would be drawn at the first vertex's 2^53
    LAYOUT_HUGE = {kind: json.dumps({"version": "qpc-layout/1", "kind": kind[:2], "vertices": [
        {"role": "x", "index": 0, "coord": [x] + [0] * (width - 1)},
        {"role": "z", "index": 0, "coord": [z] + [0] * (width - 1)}]})
        for kind, width, x, z in (("2d huge", 2, 0, 10**400), ("3d huge", 3, 0, 10**400),
                                  ("2d 2^53", 2, 2**53, 2**53 + 1))}

    @pytest.mark.parametrize("kind, fmt, option, message", [
        ("2d", "svg", "--scale", "--scale 1e+308 makes the drawing's width infinite"),
        ("3d", "svg", "--scale", "--scale 1e+308 with --shear 0.45 makes the drawing's width infinite"),
        ("3d", "svg", "--shear", "--shear 1e+308 makes a drawn coordinate infinite"),
        ("3d", "tikz", "--shear", "--shear 1e+308 makes a drawn coordinate infinite"),
        ("3d", "tikz", "--yscale", "--yscale 1e+308 makes a drawn coordinate infinite"),
        ("2d huge", "svg", None, "vertex z[0] has a coordinate too large to draw"),
        ("3d huge", "tikz", None, "vertex z[0] has a coordinate too large to draw"),
        ("2d 2^53", "tikz", None, "vertex z[0] has a coordinate too large to draw"),
    ])
    def test_layout_that_overflows_is_refused(self, tmp_path, capsys, kind, fmt, option, message):
        layout = tmp_path / "layout.json"
        layout.write_text(self.LAYOUT_HUGE[kind] if option is None else self.LAYOUT_3D)
        source = self.LAYOUT[1:3] if kind == "2d" else ["--input", layout]
        out_file = tmp_path / f"drawing.{fmt}"
        code, out, err = run(capsys, "layout", *source, "--format", fmt,
                             *([option, "1e308"] if option else []), "--out", out_file)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_file.exists()
        if option is None:                              # json keeps the exact integers
            code, emitted, err = run(capsys, "layout", *source, "--format", "json")
            layout.write_text(emitted)
            assert (code, err) == (0, "")
            assert json.loads(emitted)["vertices"] == json.loads(self.LAYOUT_HUGE[kind])["vertices"]
            assert run(capsys, "layout", *source, "--format", "json") == (0, emitted, "")

    @pytest.mark.parametrize("edge", [
        [["x", True], ["q1", 0]],            # a JSON boolean is not an index
        [["x", 2], ["q1", 0]],               # out of range
        [["y", 0], ["q1", 0]],               # unknown role
        [["x", 0, 1], ["q1", 0]],            # an end of three items
    ])
    def test_malformed_layout_edge_exits_1(self, tmp_path, capsys, edge):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"version": "qpc-layout/1", "kind": "2d", "vertices": [
            {"role": "x", "index": 0, "coord": [0, 0]}, {"role": "x", "index": 1, "coord": [0, 1]},
            {"role": "q1", "index": 0, "coord": [1, 0]}], "edges": [edge]}))
        for fmt in ("svg", "json"):
            code, out, err = run(capsys, "layout", "--input", layout, "--format", fmt, "--edges")
            assert (code, out) == (1, "")
            assert err == f"error: {layout}: edge {edge!r} does not join two listed vertices\n"

    @pytest.mark.parametrize("target", ["r.json", "."])
    def test_json_out_before_layout_is_refused(self, tmp_path, capsys, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "--json-out", target, *self.LAYOUT, "--out", "l.svg")
        assert (code, out) == (1, "")
        assert err == ("error: qpc: --json-out applies to the commands that print a report,"
                       " not layout\n")
        assert list(tmp_path.iterdir()) == []

    def test_budget_abc_in_a_fresh_process(self, tmp_path):
        proc = run_process(tmp_path, *self.ANALYZE, "--budget", "abc")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: qpc analyze: argument --budget: invalid int value: 'abc'\n"

    def test_well_formed_commands_still_run(self, tmp_path, capsys):
        for argv in (self.HGP + ["--out-prefix", tmp_path / "h"],
                     self.LP + ["--out-prefix", tmp_path / "l"],
                     self.BP + ["--out-prefix", tmp_path / "b"],
                     self.ANALYZE + ["--c1", FIXTURES / "rep3.pcm", "--c2", FIXTURES / "rep3.pcm"],
                     self.LAYOUT, self.COVERING, self.ACTION, self.ACTION + ["--lenient"]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv


class TestGrammar:
    """A command line is parsed by only the part of the grammar its command word
    names, and gives what the whole grammar gives: the same Namespace, or the same
    message, or the same help text and exit code."""

    U = TestUsageErrors
    F = [str(a) for a in U.ANALYZE[1:]]  # --hx rep3.pcm --hz rep3.pcm
    CORPUS = [
        # every command, well formed
        U.HGP + ["--out-prefix", "h"], U.LP + ["--out-prefix", "l"],
        U.BP + ["--out-prefix", "b"], U.ANALYZE, U.LAYOUT, U.COVERING, U.ACTION,
        U.ACTION + ["--lenient"], U.LAYOUT + ["--scale=-inf"], U.LAYOUT + ["--shear", "-1"],
        # the messages pinned in TestUsageErrors
        U.ANALYZE + ["--budget", "abc"], ["frob"], ["construct", "xx", "--out-prefix", "x"],
        ["verify", "both"], U.HGP[:-2], U.LP[:2] + ["--out-prefix", "x"], U.BP,
        U.ANALYZE[:3], U.LAYOUT[:3], U.COVERING[:-2], U.ACTION[:4],
        U.LP + ["--out-prefix", "x", "--c1", "f"], U.COVERING + ["--lenient"],
        U.LAYOUT + ["--input", "f"], U.LAYOUT[:1] + U.LAYOUT[3:],
        U.ACTION + ["--lenient", "--lenient"], U.HGP + ["--c1", "f"],
        # abbreviations, and global options and their values before the command
        ["analyze", *F, "--bud", "5"], ["--json", "x", "analyze", *F], ["--se", "3", "analyze", *F],
        ["--seed=3", "--json-out=r.json", "analyze", *F], ["--s", "x", "analyze", *F],
        ["--json-out", "analyze", "analyze", *F], ["--json-out", "analyze", *F],
        ["--seed", "analyze", "analyze", *F], ["--json-out", "layout", *U.LAYOUT],
        ["--jsonx", "r", "analyze", *F], ["--", "analyze", *F], ["-1", "analyze", *F],
        ["frob", "analyze", *F], ["analyze", *F, "layout"], ["analyze", "analyze", *F],
        ["layout", "analyze"], ["analyze", *F, "--c"], ["analyze", *F, "--b", "2"],
        # no command, or no argument at all
        [], ["--seed", "3"], ["--seed"], ["--json-out"], ["--seed", "x", "analyze", *F],
    ] + [
        # help, at each level and spelled every way
        [*prefix, flag]
        for prefix in ([], ["construct"], ["construct", "hgp"], ["construct", "lp"],
                       ["construct", "bp"], ["analyze"], ["layout"], ["verify"],
                       ["verify", "covering"], ["verify", "action"], ["--seed", "3"])
        for flag in ("-h", "--help", "--h", "--he", "-hh")
    ] + [["-h", "analyze", *F], ["analyze", *F, "--help"], ["analyze", "--hel", "x"],
         ["--help=x", "analyze"], ["analyze", "-hx"]]

    @staticmethod
    def parsed(parse, argv, capsys):
        try:
            result = ("namespace", vars(parse(argv)))
        except FormatError as exc:
            result = ("usage error", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, capsys.readouterr()

    @pytest.mark.parametrize("argv", [[str(a) for a in argv] for argv in CORPUS],
                             ids=lambda argv: " ".join(Path(a).name for a in argv) or "-")
    def test_same_as_the_whole_grammar(self, capsys, argv):
        from qpc import cli

        whole = self.parsed(lambda a: cli.build_parser().parse_args(a), argv, capsys)
        assert self.parsed(cli._parse, argv, capsys) == whole

    def test_well_formed_commands_build_one_command(self, monkeypatch):
        from qpc import cli

        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                            or build(command))
        for argv, word in ((self.U.HGP + ["--out-prefix", "h"], "construct"),
                           (["--json-out", "analyze", *self.U.ANALYZE], "analyze"),
                           (["--se", "3", *self.U.LAYOUT], "layout"),
                           (self.U.ACTION, "verify")):
            cli._parse([str(a) for a in argv])
            assert built.pop() == word and not built

