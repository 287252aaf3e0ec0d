import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import triangle_chain
from locirr.cli import main
from locirr.dot import export_dot
from locirr.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    write_graph6,
)
from locirr.irregularity import EdgeColoring

C5 = write_graph6(cycle_graph(5))
K10 = write_graph6(complete_graph(10))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChiIrr:
    def test_k4(self, capsys):
        code, out, _ = run(capsys, "chi-irr", "C~")
        assert code == 0 and "chi-irr=3" in out

    def test_not_decomposable(self, capsys):
        code, out, _ = run(capsys, "chi-irr", C5)
        assert code == 2 and "not-decomposable" in out

    def test_malformed_input(self, capsys):
        code, _, err = run(capsys, "chi-irr", "C~~~")
        assert code == 3 and "error:" in err

    def test_non_ascii_input(self, capsys):
        code, out, err = run(capsys, "chi-irr", "Cé")
        assert code == 3 and "non-ASCII" in err and not out

    def test_budget(self, capsys):
        code, out, _ = run(capsys, "chi-irr", K10, "--budget", "2")
        assert code == 4 and "budget-exhausted" in out

    def test_negative_budget(self, capsys):
        code, out, err = run(capsys, "chi-irr", "C~", "--budget", "-1")
        assert code == 3 and "budget" in err and not out
        code, out, _ = run(capsys, "chi-irr", "C~", "--budget", "0")
        assert code == 4 and "budget-exhausted" in out

    def test_negative_vertex_count(self, capsys):
        code, out, err = run(capsys, "color", '{"n": -2, "edges": []}')
        assert code == 3 and "negative" in err and not out

    def test_file_with_multiple_graphs(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(f"C~\n{write_graph6(cycle_graph(4))}\n")
        code, out, _ = run(capsys, "chi-irr", str(path))
        assert code == 0 and out.count("chi-irr=") == 2

    def test_json_graph(self, capsys):
        spec = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "multigraph": False})
        code, out, _ = run(capsys, "chi-irr", spec)
        assert code == 0 and "chi-irr=2" in out

    @pytest.mark.parametrize(
        "g",
        [cycle_graph(10_001), path_graph(10_001), triangle_chain(2_501)],
        ids=["C10001", "P10002", "T-chain"],
    )
    def test_not_decomposable_at_scale(self, capsys, tmp_path, g):
        # settled by structure with no search; the graph6 label of 10^4
        # vertices is written in linear time too
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        start = time.perf_counter()
        code, out, _ = run(capsys, "chi-irr", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out.endswith(" not-decomposable\n")


class TestGoldenOutput:
    # exact stdout and exit code of the exact solver's commands on a graph
    # refuted at --k-max 1 (C6, index 3) and on non-decomposable ones (C5,
    # and K2, whose floor(m/2) is 0)
    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (("chi-irr", "EhEG", "--k-max", "1"), 2, "EhEG refuted up to k=1\n"),
            (("chi-irr", "Dhc"), 2, "Dhc not-decomposable\n"),
            (("chi-irr", "A_"), 2, "A_ not-decomposable\n"),
            (("chi-irr", "Dhc", "--k-max", "1"), 2, "Dhc refuted up to k=1\n"),
            (
                ("color", "EhEG", "--method", "exact", "--k-max", "1"),
                2,
                "no coloring with at most 1 colors (refuted)\n",
            ),
            (
                ("color", "Dhc", "--method", "exact"),
                2,
                "no coloring with at most 2 colors (not_decomposable)\n",
            ),
            (
                ("color", "A_", "--method", "exact"),
                2,
                "no coloring with at most 1 colors (not_decomposable)\n",
            ),
            (
                ("color", "Dhc", "--method", "exact", "--k-max", "5"),
                2,
                "no coloring with at most 5 colors (not_decomposable)\n",
            ),
        ],
    )
    def test_exact_commands(self, capsys, argv, code, out):
        assert write_graph6(cycle_graph(6)) == "EhEG" and C5 == "Dhc"
        assert run(capsys, *argv)[:2] == (code, out)


class TestPipelines:
    def test_decompose_color_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "C~", "--mode", "strong")
        assert code == 0
        (tmp_path / "d.json").write_text(out)

        code, out, _ = run(capsys, "color", "C~", "--method", "subcubic4")
        assert code == 0
        (tmp_path / "col.json").write_text(out)

        code, out, _ = run(capsys, "verify", "C~", str(tmp_path / "col.json"))
        assert code == 0 and out.strip() == "valid"

        code, out, _ = run(
            capsys, "export-dot", "C~",
            "--coloring", str(tmp_path / "col.json"),
            "--decomposition", str(tmp_path / "d.json"),
        )
        assert code == 0 and out.startswith("graph G {") and "xlabel" in out

    def test_verify_invalid(self, capsys):
        bad = json.dumps({"k": 1, "colors": [1, 1, 1, 1]})
        code, out, _ = run(capsys, "verify", write_graph6(cycle_graph(4)), bad)
        assert code == 2 and "violation" in out

    def test_color_exact_roundtrip(self, capsys):
        code, out, _ = run(capsys, "color", "C~", "--method", "exact")
        assert code == 0
        col = EdgeColoring.from_json(out)
        assert col.k == 3

    def test_color_subdivided2(self, capsys):
        spec = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "multigraph": False})
        code, out, _ = run(capsys, "color", spec, "--method", "subdivided2")
        assert code == 0 and EdgeColoring.from_json(out).k <= 2

    @pytest.mark.parametrize(
        "method, edges, even",
        [
            ("forest2", [[0, 1], [1, 2], [2, 3], [3, 4]], "1,3"),
            ("balanced4", [[0, 1], [1, 2], [2, 3], [0, 3]], "0,2"),
            # 3 other-side vertices: the subdivision route
            (
                "balanced4",
                [[0, 3], [1, 3], [0, 4], [1, 4], [1, 5], [2, 5], [1, 6], [2, 6]],
                "3,4,5,6",
            ),
        ],
        ids=["forest2", "balanced4-parity", "balanced4-subdivision"],
    )
    def test_color_bipartite_methods_verify(self, capsys, method, edges, even):
        spec = json.dumps({"n": 1 + max(max(e) for e in edges), "edges": edges})
        code, out, _ = run(capsys, "color", spec, "--method", method, "--even-side", even)
        assert code == 0
        code, verdict, _ = run(capsys, "verify", spec, out)
        assert (code, verdict) == (0, "valid\n")

    def test_color_subcubic4_trace(self, capsys):
        code, out, err = run(capsys, "color", "C~", "--method", "subcubic4", "--trace")
        assert code == 0 and run(capsys, "verify", "C~", out)[:2] == (0, "valid\n")
        lines = err.splitlines()
        assert lines and all(line.startswith("# ") for line in lines)

    def test_color_exact_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "color", "C~", "--method", "exact", "--budget", "0")
        assert (code, out) == (4, "budget-exhausted\n")

    def test_color_subcubic4_odd_path(self, capsys):
        # 3 edges and no vertex of degree 3: no claw-type element fits
        code, out, _ = run(capsys, "color", write_graph6(path_graph(3)), "--method", "subcubic4")
        assert code == 2 and out.startswith("no decomposition")

    def test_color_parity_needs_signature(self, capsys):
        code, _, err = run(capsys, "color", "C~", "--method", "parity")
        assert code == 3 and "--signature" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "C~", '{"k": 3}'),
            ("verify", "C~", "notjson"),
            ("export-dot", "C~", "--decomposition", "<bad json>"),
            ("export-dot", "C~", "--decomposition", '{"elements": [{"edges": [0, 9]}]}'),
            # only JSON integers, and a JSON boolean for multigraph, are
            # read: int() and bool() would read 2.5 as 2 and "false" as true
            ("chi-irr", '{"n": 2.5, "edges": []}'),
            ("chi-irr", '{"n": true, "edges": []}'),
            ("chi-irr", '{"n": 2, "edges": [[0, 1.9]]}'),
            ("chi-irr", '{"n": 2, "edges": [[0, 1], [0, 1]], "multigraph": "false"}'),
            ("verify", "C~", '{"k": 3, "colors": [1.5, 1, 1, 1, 1, 1]}'),
            (
                "export-dot", "C~", "--decomposition",
                '{"elements": [{"edges": [0.9, 2]}, {"edges": [1, 3]}, {"edges": [4, 5]}]}',
            ),
        ],
    )
    def test_malformed_json_is_input_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("color", "C~", "--method", "parity", "--signature", "01x1"),
            ("color", "C~", "--method", "forest2", "--even-side", "a"),
            ("color", "C~", "--method", "balanced4", "--even-side", "0,1.5"),
            ("color", ".", "--method", "parity", "--signature", "0000"),
        ],
    )
    def test_malformed_option_is_input_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("export-dot", "C~", "--coloring", '{"k": 1, "colors": [1, 1, 1, 1, 1]}'),
            ("export-dot", "C~", "--coloring", '{"k": 1, "colors": [1, 1, 1, 1, 1, 1, 1]}'),
            ("export-dot", "C~", "--decomposition", '{"elements": [{"edges": [0, 1]}]}'),
            (
                "export-dot", "C~", "--decomposition",
                '{"elements": [{"edges": [0, 1]}, {"edges": [0, 1]}, {"edges": [2, 5]}]}',
            ),
        ],
    )
    def test_export_dot_checks_overlays(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and "error:" in err and not out

    @pytest.mark.parametrize(
        "argv",
        [
            ("chi-irr", "C~", "--k-max", "abc"),
            ("campaign", "--family", "nope", "--max-n", "4", "--bound", "3"),
            (),
        ],
    )
    def test_usage_error_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_decompose_odd_cycle(self, capsys):
        code, out, _ = run(capsys, "decompose", "DUW", "--mode", "2path")
        assert code == 2 and "no decomposition" in out

    @pytest.mark.parametrize(
        "g, reason",
        [
            (path_graph(5), "odd path"),
            (cycle_graph(7), "odd cycle"),
            (triangle_chain(2), "member of T"),
        ],
    )
    def test_decompose_names_why_not_decomposable(self, capsys, g, reason):
        for mode in ("pertinent", "strong"):
            code, out, _ = run(capsys, "decompose", write_graph6(g), "--mode", mode)
            verts = list(range(g.n))
            assert (code, out) == (
                2,
                f"no decomposition: component on vertices {verts} is not decomposable: {reason}\n",
            )

    @pytest.mark.parametrize(
        "argv",
        [("decompose", "--mode", m) for m in ("2path", "pertinent", "strong")]
        + [("color", "--method", "subcubic4")],
    )
    def test_parallel_edges_are_input_error(self, capsys, argv):
        # 1-colorable, so "no decomposition" (exit 2) would be wrong
        spec = '{"n":3,"edges":[[0,1],[0,1],[1,2],[1,2]],"multigraph":true}'
        code, out, err = run(capsys, argv[0], spec, *argv[1:])
        assert code == 3 and "simple graph" in err and out == ""


class TestArbitraryInput:
    """Any text as graph, --signature or --even-side ends in a documented
    exit code, never a traceback."""

    @given(graph=st.text(max_size=12), signature=st.text(max_size=8),
           even=st.text(max_size=8))
    @example(graph="C~", signature="1111", even="0")
    @example(graph=".", signature="", even="")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes(self, capsys, graph, signature, even):
        # "--" and "--opt=value" keep argparse from reading the text as options
        for argv in (
            ["color", "--method", "parity", f"--signature={signature}", "--", graph],
            ["color", "--method", "forest2", f"--even-side={even}", "--", graph],
            ["color", "--method", "balanced4", f"--even-side={even}", "--", graph],
        ):
            code, _, _ = run(capsys, *argv)
            assert code in (0, 2, 3, 4)


class TestCampaignCli:
    def test_pass_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "campaign", "--family", "cubic", "--max-n", "6",
            "--bound", "3", "--csv", str(csv),
        )
        assert code == 0
        data = json.loads(out)
        assert data["exceeders"] == []
        assert csv.read_text().startswith("colors,count")

    def test_bound_violated(self, capsys):
        code, out, _ = run(
            capsys, "campaign", "--family", "cubic", "--max-n", "4", "--bound", "1"
        )
        assert code == 2
        assert json.loads(out)["exceeders"] == ["C~"]


    def test_budget_without_checkpoint(self, capsys):
        code, out, _ = self._campaign(capsys, "--budget", "0")
        assert code == 4
        assert out == "budget exhausted: campaign aborted at n=4: node budget hit on C~\n"

    def _campaign(self, capsys, *extra):
        return run(
            capsys, "campaign", "--family", "cubic", "--max-n", "4", "--bound", "3", *extra
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ("--budget", "-5"),
            ("--jobs", "0"),
            ("--jobs", "-1"),
            ("--max-n", "-1"),
            ("--bound", "0"),
            ("--bound", "-1"),
            ("--family", "all", "--method", "constructive", "--max-n", "5"),
        ],
        ids=["budget-5", "jobs0", "jobs-1", "max-n-1", "bound0", "bound-1", "constructive-all"],
    )
    def test_invalid_sizes(self, capsys, extra):
        # a later --max-n overrides the one _campaign passes
        code, out, err = self._campaign(capsys, *extra, "--verbose")
        assert code == 3 and "error:" in err and out == ""
        assert "# n=" not in err

    def test_checkpoint_not_json(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("not json")
        code, _, err = self._campaign(capsys, "--checkpoint", str(ckpt))
        assert code == 3 and str(ckpt) in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: body.update(done_n="3"),
            lambda body: body.pop("per_n"),
            lambda body: body.update(per_n={"x": 1}),
            lambda body: body.update(done_n=5),  # past --max-n 4
            lambda body: body.update(exceeders=[1]),
        ],
        ids=["done_n-string", "per_n-missing", "per_n-bad-key", "done_n-past-max-n",
             "exceeders-not-strings"],
    )
    def test_checkpoint_malformed_body(self, capsys, tmp_path, edit):
        # version and params match, so the body is read, and rejected
        ckpt = tmp_path / "ckpt.json"
        assert self._campaign(capsys, "--checkpoint", str(ckpt))[0] == 0
        body = json.loads(ckpt.read_text())
        edit(body)
        ckpt.write_text(json.dumps(body))
        code, out, err = self._campaign(capsys, "--checkpoint", str(ckpt))
        assert code == 3 and str(ckpt) in err and out == ""

    def test_checkpoint_is_directory(self, capsys, tmp_path):
        code, _, err = self._campaign(capsys, "--checkpoint", str(tmp_path))
        assert code == 3 and str(tmp_path) in err

    # a bad output path is reported before the first level runs: --verbose
    # prints "# n=..." from the progress callback after every level
    def test_checkpoint_in_missing_directory(self, capsys, tmp_path):
        ckpt = tmp_path / "missing" / "ckpt.json"
        code, _, err = self._campaign(capsys, "--checkpoint", str(ckpt), "--verbose")
        assert code == 3 and str(ckpt) in err
        assert "# n=" not in err

    def test_csv_in_missing_directory(self, capsys, tmp_path):
        csv = tmp_path / "missing" / "hist.csv"
        code, out, err = self._campaign(capsys, "--csv", str(csv), "--verbose")
        assert code == 3 and str(csv) in err
        assert "# n=" not in err and out == ""


class TestFigures:
    def test_fig1(self, capsys):
        code, out, _ = run(capsys, "fig1", "--max-edges", "9")
        assert code == 0 and "chi-irr: 3" in out

    def test_fig6(self, capsys):
        code, out, _ = run(capsys, "fig6")
        assert code == 0
        assert "refuted at 3" in out and "2-coloring" in out


class TestDotExport:
    def test_empty_graph(self):
        text = export_dot(Graph(0, ()))
        assert text.startswith("graph G {") and text.rstrip().endswith("}")

    def test_coloring_attributes(self):
        g = cycle_graph(4)
        text = export_dot(g, coloring=EdgeColoring((1, 1, 2, 2), 2))
        assert text.count("color=") == 4 and 'label="2"' in text

    def test_deterministic(self):
        g = parse_graph6("C~")
        assert export_dot(g) == export_dot(g)
