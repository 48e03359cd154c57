import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtriple
from graphtriple import conditions, graphs, hochschild, spectral
from graphtriple.clifford import KMAX
from graphtriple.cli import (EX_CANTCREAT, EX_DATAERR, EX_NOINPUT,
                             EX_UNAVAILABLE, EX_USAGE, run)

from corpus import (loop_with_exit, random_tree, single_loop,
                    torus_2graph, tree_with_ends)
from graphtriple.graphs import (GraphPresentation, GraphValidationError,
                               graph_from_document, graph_to_document)
from graphtriple.spectral import vertex_multiplicities
from graphtriple.traces import canonical_F_form_numeric, solve_graph_trace


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(graph_to_document(single_loop(1))))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(graph_to_document(tree_with_ends(2))))
    return str(path)


@pytest.fixture
def diamond_file(tmp_path):
    """c -> a, c -> b, a -> v, b -> v and a tail at v: entering paths at v
    stop at length 2, though two of them meet there."""
    doc = {
        "k": 1, "vertices": ["a", "b", "c", "v"], "tails": ["v"],
        "edges": [
            {"id": "e1", "source": "c", "range": "a"},
            {"id": "e2", "source": "c", "range": "b"},
            {"id": "e3", "source": "a", "range": "v"},
            {"id": "e4", "source": "b", "range": "v"},
        ],
    }
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    doc = {
        "k": 2,
        "vertices": ["v"],
        "edges": [
            {"id": "e", "source": "v", "range": "v", "color": 1},
            {"id": "f", "source": "v", "range": "v", "color": 2},
        ],
        "tails": [],
        "squares": [{"first": ["e", "f"], "second": ["f", "e"]}],
    }
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, loop_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", loop_file, "--no-such-flag"])
        assert exc.value.code == EX_USAGE

    def test_unreadable_input(self, capsys):
        assert run(["analyze", "/nonexistent/g.json"]) == EX_NOINPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read /nonexistent/g.json: ")

    def test_text_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'\xff{"k": 1}')
        assert run(["analyze", str(bad)]) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation failure: not UTF-8 text")

    def test_validation_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 1, "vertices": ["v"], "edges": '
                       '[{"id": "e", "source": "v", "range": "w"}], "tails": []}')
        assert run(["analyze", str(bad)]) == EX_DATAERR

    @pytest.mark.parametrize("doc", [
        {"k": 1, "vertices": "ab", "edges": [], "tails": []},
        {"k": 1, "vertices": ["a"], "edges": 5, "tails": []},
        {"k": 1, "vertices": ["a"], "edges": ["e"], "tails": []},
        {"k": 1, "vertices": ["a"], "edges": [], "tails": "a"},
        {"k": 1, "vertices": ["a"], "edges": [], "tails": [],
         "source_tails": "a"},
        {"k": 2, "vertices": "v", "edges": [], "tails": []},
        {"k": 2, "vertices": ["v"], "edges": 5, "tails": []},
        {"k": 2, "vertices": ["v"], "edges": [5], "tails": []},
        {"k": 2, "vertices": ["v"], "edges": [], "tails": [], "squares": {}},
        {"k": 2, "vertices": ["v"], "edges": [], "tails": [],
         "squares": [{"first": "ef", "second": ["f", "e"]}]},
    ])
    def test_non_array_fields_are_format_errors(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["analyze", str(bad)]) == EX_DATAERR
        assert "validation failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "conditions"])
    @pytest.mark.parametrize("field,value", [
        ("color", "1"), ("color", True), ("id", 5), ("source", ["v"]),
        ("range", None), ("vertices", [["v"]]),
        ("squares", [{"first": [["e"], "f"], "second": ["f", "e"]}]),
    ])
    def test_kgraph_field_of_wrong_type_is_data_error(
            self, command, field, value, torus_file, tmp_path, capsys):
        doc = json.loads(Path(torus_file).read_text())
        if field in ("vertices", "squares"):
            doc[field] = value
        else:
            doc["edges"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run([command, str(bad)]) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation failure")

    @pytest.mark.parametrize("window", ["-5", "0", "ten"])
    def test_non_positive_window_is_usage_error(self, loop_file, window, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["spectral", loop_file, "--window", window])
        assert exc.value.code == EX_USAGE

    @pytest.mark.parametrize("kmax", ["0", "-2", "17", "nine"])
    def test_clifford_kmax_out_of_range_is_usage_error(self, kmax, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["clifford", "--kmax", kmax])
        assert exc.value.code == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--kmax" in err

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_clifford_format_other_than_json_is_usage_error(self, fmt, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["clifford", "--kmax", "3", "--format", fmt])
        assert exc.value.code == EX_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--format", "csv"],
        ["trace", "--format", "text"],
        ["ktheory", "--format", "csv"],
        ["hochschild", "--format", "text"],
        ["spectral", "--format", "text"],
        ["conditions", "--format", "csv"],
        ["conditions", "--format", "text"],
    ])
    def test_format_not_emitted_is_usage_error(self, argv, loop_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run([argv[0], loop_file] + argv[1:])
        assert exc.value.code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:") and "--format" in captured.err

    def test_check_cycle_is_an_unknown_flag(self, torus_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["hochschild", torus_file, "--check-cycle"])
        assert exc.value.code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --check-cycle" in captured.err

    @pytest.mark.parametrize("command", [
        "analyze", "trace", "ktheory", "hochschild", "spectral", "conditions",
    ])
    def test_k1_document_with_squares_is_data_error(self, command, tmp_path,
                                                    capsys):
        # every k = 1 document goes to the 1-graph loader, which has no
        # squares and no edge colours
        doc = {"k": 1, "vertices": ["v"],
               "edges": [{"id": "e", "source": "v", "range": "v", "color": 1}],
               "squares": [], "tails": []}
        path = tmp_path / "k1.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)]) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "validation failure" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "conditions"])
    @pytest.mark.parametrize("k", [True, 1.0])
    def test_k_that_is_not_an_int_is_data_error(self, command, k, tmp_path,
                                                capsys):
        doc = {"k": k, "vertices": ["v"],
               "edges": [{"id": "e", "source": "v", "range": "v"}],
               "tails": []}
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc))
        assert run([command, str(path)]) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation failure" in captured.err

    @pytest.mark.parametrize("argv", [
        ["spectral", "--level", "2"],
        ["spectral", "--tolerance", "0.1"],
        ["analyze", "--level", "2"],
        ["analyze", "--end-value", "tail:v=1"],
        ["ktheory", "--level", "2"],
        ["ktheory", "--end-value", "tail:v=1"],
        ["trace", "--level", "2"],
        ["hochschild", "--end-value", "tail:v=1"],
        ["hochschild", "--level", "3"],
        ["spectral", "--csv"],
        ["conditions", "--window", "100"],
        ["conditions", "--tolerance", "0.05"],
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(
            self, argv, loop_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run([argv[0], loop_file] + argv[1:])
        assert exc.value.code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {argv[1]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["conditions", "--level", "0"],
        ["conditions", "--level", "two"],
        ["conditions", "--tolerance", "nan"],
        ["conditions", "--tolerance", "-1"],
        ["conditions", "--tolerance", "0"],
        ["conditions", "--tolerance", "inf"],
    ])
    def test_flag_value_outside_its_domain_is_usage_error(self, argv, loop_file,
                                                          capsys):
        with pytest.raises(SystemExit) as exc:
            run([argv[0], loop_file] + argv[1:])
        assert exc.value.code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:") and argv[1] in captured.err

    @pytest.mark.parametrize("command", ["trace", "spectral", "conditions"])
    @pytest.mark.parametrize("values", [
        ["tail:c1=abc", "tail:c2=1"],
        ["tail:c1=1/0", "tail:c2=1"],
        ["tail:c1=1", "tail:c2=1", "tail:zz=5"],
    ], ids=["not_a_number", "zero_denominator", "unknown_end"])
    def test_bad_end_value_is_data_error(self, command, values, tree_file,
                                         capsys):
        # spectral profiles a vertex, so that only the end value can fail
        argv = [command, tree_file] + (["--vertex", "b"]
                                       if command == "spectral" else [])
        for value in values:
            argv += ["--end-value", value]
        assert run(argv) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation failure: ")

    @pytest.mark.parametrize("command", ["trace", "conditions"])
    def test_end_value_on_a_kgraph_is_data_error(self, command, torus_file,
                                                 capsys):
        # a k-graph has no ends, so any end value names no end of it
        argv = [command, torus_file, "--end-value", "tail:q=5"]
        assert run(argv) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation failure: no such end: tail:q\n"

    def test_evaluate_all_refuses_end_values_on_a_kgraph(self):
        # the library refuses what the CLI refuses; no end values is fine
        with pytest.raises(GraphValidationError,
                           match="^no such end: tail:q$"):
            conditions.evaluate_all(torus_2graph(), end_values={"tail:q": 5},
                                    level=1)
        assert conditions.evaluate_all(torus_2graph(), end_values={},
                                       level=1).exit_code() == 0

    def test_empty_presentation_is_degenerate(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(
            {"k": 1, "vertices": [], "edges": [], "tails": []}))
        assert run(["conditions", str(empty)]) == EX_DATAERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "validation failure: degenerate presentation")

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["analyze", str(bad)]) == EX_DATAERR


class TestSubcommands:
    def test_analyze(self, loop_file, capsys):
        assert run(["analyze", loop_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["kind"] == "SingleLoop"

    def test_trace(self, tree_file, capsys):
        assert run(["trace", tree_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"]["b"] == "2"

    def test_trace_with_end_values(self, tree_file, capsys):
        assert run(["trace", tree_file, "--end-value", "tail:c1=1/2",
                    "--end-value", "tail:c2=1/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"]["b"] == "1"

    def test_ktheory(self, tree_file, capsys):
        assert run(["ktheory", tree_file]) == 0
        assert json.loads(capsys.readouterr().out) == {"k0": 2, "k1": 0}

    def test_hochschild_1graph(self, loop_file, capsys):
        assert run(["hochschild", loop_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["orientable"] and doc["b_cycle_zero"]

    def test_hochschild_kgraph(self, torus_file, capsys):
        assert run(["hochschild", torus_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b_ck_zero"] and doc["pi_D_is_volume_form"]

    def test_clifford(self, capsys):
        assert run(["clifford", "--kmax", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"]

    def test_clifford_two_bott_periods(self, capsys):
        assert run(["clifford", "--kmax", "16", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"]
        assert sorted(doc["table"], key=int) == [str(k) for k in range(1, 17)]
        for k in range(1, 9):
            assert doc["table"][str(k)] == doc["table"][str(k + 8)]
            assert doc["omega_squares"][str(k)] == doc["omega_squares"][str(k + 8)]

    def test_spectral_csv(self, loop_file, capsys):
        assert run(["spectral", loop_file, "--window", "2000",
                    "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,F_T")

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["trace"], ["ktheory"], ["hochschild"],
        ["spectral", "--vertex", "b", "--window", "2000"],
    ])
    def test_format_json_everywhere(self, argv, tree_file, capsys):
        assert run([argv[0], tree_file, "--format", "json"] + argv[1:]) == 0
        json.loads(capsys.readouterr().out)

    def test_spectral_finite_rank_limit_is_zero(self, tmp_path, capsys):
        # one vertex, no edges: the mass sits on level 0 alone, so the
        # operator has finite rank and there is no log-growth to fit
        path = tmp_path / "point.json"
        path.write_text(json.dumps(
            {"k": 1, "vertices": ["v"], "edges": [], "tails": []}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RankWarning, say
            assert run(["spectral", str(path), "--vertex", "v"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["limit"] == 0.0
        assert captured.err == ""

    def test_spectral_vertex_profile(self, tree_file, capsys):
        assert run(["spectral", tree_file, "--vertex", "b",
                    "--window", "5000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["limit"] - 4.0) < 0.2

    def test_conditions_exit_zero(self, loop_file, capsys):
        assert run(["conditions", loop_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(e["status"] == "holds"
                   for e in doc["conditions"].values())

    def test_conditions_exit_two_on_failure(self, tmp_path, capsys):
        doc = {
            "k": 1, "vertices": ["u", "w"], "tails": [],
            "edges": [
                {"id": "e", "source": "u", "range": "u"},
                {"id": "f", "source": "w", "range": "w"},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert run(["conditions", str(path)]) == 2

    def test_byte_identical_reruns(self, loop_file, capsys):
        run(["conditions", loop_file])
        first = capsys.readouterr().out
        run(["conditions", loop_file])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, loop_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert run(["analyze", loop_file, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["structural"]["loops"] == 1

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["hochschild"], ["conditions"],
        ["spectral", "--window", "64", "--format", "csv"],
    ])
    def test_out_file_that_cannot_be_written(self, argv, loop_file, tmp_path,
                                             capsys):
        for target in (tmp_path / "no" / "dir" / "x.json", tmp_path):
            code = run([argv[0], loop_file, "--out", str(target)] + argv[1:])
            assert code == EX_CANTCREAT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"cannot write {target}: ")
            assert "Traceback" not in captured.err
        assert not (tmp_path / "no").exists()


class TestStructureEdgeCases:
    def test_backward_diamond_dimension_limit(self, diamond_file, capsys):
        # the tail gives c+ = 1, and the bounded backward depth c- = 0
        run(["conditions", diamond_file, "--level", "1"])
        doc = json.loads(capsys.readouterr().out)
        samples = doc["conditions"]["dimension"]["witness"]["samples"]
        (at_v,) = [s for s in samples if s["vertex"] == "v"]
        assert (at_v["limit"], at_v["target"]) == ("1", "2")
        assert run(["spectral", diamond_file, "--vertex", "v"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["limit"] - 1) < 0.01

    @staticmethod
    def _long_path(tmp_path, **extra):
        """p0000 -> ... -> p1499 with a tail at p1499: longer than the
        interpreter's recursion limit."""
        verts = [f"p{i:04d}" for i in range(1500)]
        doc = {
            "k": 1, "vertices": verts, "tails": [verts[-1]],
            "edges": [{"id": f"e{i:04d}", "source": u, "range": w}
                      for i, (u, w) in enumerate(zip(verts, verts[1:]))],
            **extra,
        }
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        return doc, str(path)

    def test_trace_on_a_path_longer_than_the_recursion_limit(
            self, tmp_path, capsys):
        _, path = self._long_path(tmp_path)
        assert run(["trace", path]) == 0
        values = json.loads(capsys.readouterr().out)["vertices"]
        assert len(values) == 1500 and set(values.values()) == {"1"}

    def test_spectral_on_a_path_longer_than_the_recursion_limit(
            self, tmp_path, capsys):
        # the source tail makes every backward level carry tau(p0000) = 1,
        # and the tail at the far end every forward level: c+ + c- = 2
        doc, path = self._long_path(tmp_path, source_tails=["p0000"])
        assert run(["spectral", path, "--vertex", "p0000"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["limit"] - 2) < 0.01
        g = graph_from_document(doc)
        model = vertex_multiplicities(g, solve_graph_trace(g), "p0000")
        assert model.dixmier_limit() == 2

    def test_conditions_on_a_long_path_runs_to_a_verdict(self, tmp_path):
        # about 3,000 ambient vertices: the terminal components and the
        # receivers of the irreducibility count are linear passes over them,
        # in bounded time and memory
        _, path = self._long_path(tmp_path, source_tails=["p0000"])
        out = tmp_path / "report.json"
        done = _run_python(
            "import resource\n"
            "from graphtriple.cli import run\n"
            f"code = run(['conditions', {path!r}, '--level', '1',"
            f" '--out', {str(out)!r}])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n",
            timeout=60)
        code, rss_kb = map(int, done.stdout.split())
        assert code == 0
        report = json.loads(out.read_text())
        statuses = {c["status"] for c in report["conditions"].values()}
        assert len(report["conditions"]) == 9 and statuses == {"holds"}
        assert rss_kb < 200 * 1024

    @staticmethod
    def _one_vertex_kgraph(tmp_path, k):
        doc = {
            "k": k, "vertices": ["v"], "tails": [],
            "edges": [{"id": f"g{c}", "source": "v", "range": "v",
                       "color": c} for c in range(1, k + 1)],
            "squares": [{"first": [f"g{c}", f"g{d}"],
                         "second": [f"g{d}", f"g{c}"]}
                        for c in range(1, k + 1) for d in range(c + 1, k + 1)],
        }
        path = tmp_path / f"kgraph{k}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("k", [14, 15, 16])
    def test_conditions_up_to_kmax(self, k, tmp_path, capsys):
        # irreducibility is counted from the presentation, so the one
        # budget left is the Clifford layer's KMAX
        out = tmp_path / "report.json"
        assert run(["conditions", self._one_vertex_kgraph(tmp_path, k),
                    "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["conditions"]
        assert len(entries) == 9
        assert {e["status"] for e in entries.values()} == {"holds"}

    def test_conditions_above_kmax_exits_69(self, tmp_path, capsys,
                                            monkeypatch):
        # refused before the trace, single exit or the Clifford algebra
        def refuse(*args, **kwargs):
            raise AssertionError("conditions worked above KMAX")
        for name in ("solve_kgraph_trace", "reality_operator"):
            monkeypatch.setattr(conditions, name, refuse)
        path = self._one_vertex_kgraph(tmp_path, KMAX + 1)
        assert run(["conditions", path]) == EX_UNAVAILABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("over budget: ")
        assert f"KMAX = {KMAX}" in captured.err

    def test_conditions_at_level_1e9_expands_no_tail(
            self, tmp_path, monkeypatch):
        # the count reads the backward depths, so a level of 10^9 costs
        # what level 1,000 does and gives the same witness
        path = tmp_path / "tree4.json"
        path.write_text(json.dumps(graph_to_document(tree_with_ends(4))))

        def refuse(*args, **kwargs):
            raise AssertionError("conditions expanded the tails")
        monkeypatch.setattr(GraphPresentation, "expand", refuse)
        witnesses = []
        for level in ("1000", "1000000000"):
            out = tmp_path / f"report{level}.json"
            assert run(["conditions", str(path), "--level", level,
                        "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["parameters"] == {"level": int(level)}
            witnesses.append(report["conditions"]["irreducibility"])
        assert witnesses[0] == witnesses[1]
        assert witnesses[0]["witness"] == {"dimension_interior": 1}

    def test_conditions_counts_classes_twice(self, tree_file, monkeypatch):
        # one union-find for connectivity, which the hypotheses, the trace
        # and classify share, and one for irreducibility
        calls = []
        exact = graphs.count_classes

        def counted(items, links):
            calls.append(1)
            return exact(items, links)

        monkeypatch.setattr(graphs, "count_classes", counted)
        monkeypatch.setattr(conditions, "count_classes", counted)
        assert run(["conditions", tree_file]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("level", ["3", "1000000"])
    def test_conditions_work_is_linear_in_the_presentation(
            self, tmp_path, level):
        # every Python and builtin call of one request, counted: ten times
        # the vertices may cost at most twelve times the calls, whatever
        # the level
        def calls_on(n):
            path = tmp_path / f"tree{n}.json"
            path.write_text(json.dumps(graph_to_document(random_tree(n, 1))))
            count = [0]

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    count[0] += 1

            sys.setprofile(profile)
            try:
                code = run(["conditions", str(path), "--level", level,
                            "--out", str(tmp_path / "report.json")])
            finally:
                sys.setprofile(None)
            assert code == 0
            return count[0]

        small, large = calls_on(2000), calls_on(20000)
        assert large <= 12 * small

    def test_conditions_at_level_1000_on_tree_with_ends_4(self, tmp_path):
        path = tmp_path / "tree4.json"
        path.write_text(json.dumps(graph_to_document(tree_with_ends(4))))
        out = tmp_path / "report.json"
        assert run(["conditions", str(path), "--level", "1000",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parameters"] == {"level": 1000}
        assert report["conditions"]["irreducibility"]["witness"] == {
            "dimension_interior": 1}

    def test_hochschild_over_its_budget_exits_69(
            self, torus_file, capsys, monkeypatch):
        # the torus's c_2 has 2! x 1 = 2 terms
        monkeypatch.setattr(hochschild, "CYCLE_BUDGET", 1)
        assert run(["hochschild", torus_file]) == EX_UNAVAILABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("over budget: ")
        assert " 2 terms" in captured.err
        monkeypatch.setattr(hochschild, "CYCLE_BUDGET", 2)
        assert run(["hochschild", torus_file]) == 0

    def test_spectral_over_its_budget_exits_69(
            self, loop_file, capsys, monkeypatch):
        # refused before any buffer is allocated
        over = str(spectral.PROFILE_BUDGET + 1)
        assert run(["spectral", loop_file, "--window", over]) == EX_UNAVAILABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("over budget: ")
        assert f" {over} levels" in captured.err
        monkeypatch.setattr(spectral, "PROFILE_BUDGET", 1000)
        assert run(["spectral", loop_file, "--window", "1001"]) == \
            EX_UNAVAILABLE
        assert run(["spectral", loop_file, "--window", "1000"]) == 0

    def test_one_vertex_8graph(self, tmp_path, capsys):
        # conditions reads orientability from single exit and builds no
        # truncation (9^8 degree pairs at the default level);
        # hochschild would build 8! = 40,320 terms and refuses before
        # building any
        path = self._one_vertex_kgraph(tmp_path, 8)
        out = tmp_path / "report.json"
        for level in (["--level", "1"], []):
            assert run(["conditions", path, "--out", str(out)] + level) == 0
            entries = json.loads(out.read_text())["conditions"]
            assert len(entries) == 9
            assert all(e["status"] == "holds" for e in entries.values())
        capsys.readouterr()
        assert run(["hochschild", path]) == EX_UNAVAILABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert " 40320 terms" in captured.err


def _run_python(code, timeout=None):
    """Run code in a fresh interpreter that imports this checkout's
    graphtriple."""
    import graphtriple
    src = str(Path(graphtriple.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=timeout)


def test_cold_start_leaves_numpy_and_networkx_unloaded(tree_file):
    """`conditions` and `clifford` run without importing numpy or networkx;
    `spectral` still loads numpy, for the Dixmier profile."""
    code = (
        "import contextlib, io, json, sys\n"
        "from graphtriple.cli import run\n"
        "heavy = ('numpy', 'networkx')\n"
        "loaded = {}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    run(['conditions', {tree_file!r}, '--level', '1'])\n"
        "    run(['clifford', '--kmax', '3'])\n"
        "    loaded['cold'] = [m for m in heavy if m in sys.modules]\n"
        f"    run(['spectral', {tree_file!r}, '--vertex', 'b'])\n"
        "    loaded['spectral'] = [m for m in heavy if m in sys.modules]\n"
        "print(json.dumps(loaded))\n"
    )
    done = _run_python(code)
    assert json.loads(done.stdout) == {"cold": [], "spectral": ["numpy"]}


# The graphtriple modules each subcommand loads in a fresh process: every
# request needs `graphs` and `kgraphs` to parse and `clifford` for the
# parser's KMAX; the other layers load only when a subcommand runs them.
_START = {"graphtriple", "graphtriple.cli", "graphtriple.graphs",
          "graphtriple.kgraphs", "graphtriple.clifford", "graphtriple.scalars"}
_TRACE = {"graphtriple.traces", "graphtriple.linalg"}


@pytest.mark.parametrize("argv,added", [
    (["clifford", "--kmax", "3"], set()),
    (["conditions", "{tree}", "--level", "1"],
     {"graphtriple.conditions", *_TRACE}),
    (["conditions", "{torus}"], {"graphtriple.conditions", *_TRACE}),
    (["analyze", "{tree}"], {"graphtriple.conditions", *_TRACE}),
    (["spectral", "{tree}", "--vertex", "b", "--window", "1000"],
     {"graphtriple.spectral", "graphtriple.algebra", *_TRACE}),
    (["hochschild", "{tree}"],
     {"graphtriple.hochschild", "graphtriple.algebra"}),
    (["hochschild", "{torus}"],
     {"graphtriple.hochschild", "graphtriple.algebra"}),
], ids=["clifford", "conditions_1graph", "conditions_2graph", "analyze",
        "spectral", "hochschild_1graph", "hochschild_2graph"])
def test_cold_start_loads_only_the_layers_a_subcommand_runs(
        argv, added, tree_file, torus_file):
    argv = [a.format(tree=tree_file, torus=torus_file) for a in argv]
    code = (
        "import contextlib, io, json, sys\n"
        "from graphtriple.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'graphtriple')]))\n"
    )
    exit_code, loaded = json.loads(_run_python(code).stdout)
    assert exit_code == 0
    assert set(loaded) == _START | added


def test_package_import_loads_no_layer():
    """`import graphtriple` loads no layer module; each name in __all__
    resolves on first access to the object its layer defines."""
    code = (
        "import json, sys\n"
        "import graphtriple\n"
        "bare = sorted(m for m in sys.modules\n"
        "              if m.split('.')[0] == 'graphtriple')\n"
        "names = {}\n"
        "exec('from graphtriple import *', names)\n"
        "print(json.dumps([bare, sorted(n for n in names if n in\n"
        "                               graphtriple.__all__)]))\n"
    )
    bare, star = json.loads(_run_python(code).stdout)
    assert bare == ["graphtriple"]
    assert star == sorted(graphtriple.__all__)
    for name in graphtriple.__all__:
        value = getattr(graphtriple, name)
        if name != "__version__":
            module = sys.modules[value.__module__]
            assert getattr(module, name) is value
            assert module.__name__.startswith("graphtriple.")
    assert not hasattr(graphtriple, "no_such_name")


def _call(argv):
    """run(argv) in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _kgraph_document(k, edges, squares):
    """edges as (id, source, range, color), squares as (first, second)."""
    return {
        "k": k, "vertices": sorted({e[1] for e in edges}), "tails": [],
        "edges": [{"id": i, "source": s, "range": r, "color": c}
                  for i, s, r, c in edges],
        "squares": [{"first": list(a), "second": list(b)}
                    for a, b in squares],
    }


_TORUS_DOCUMENT = _kgraph_document(
    2, [("e", "v", "v", 1), ("f", "v", "v", 2)], [(("e", "f"), ("f", "e"))])
# two loops of each colour: g(v) = 2 g(v) has no positive solution
_NO_TRACE_DOCUMENT = _kgraph_document(
    2, [("e1", "v", "v", 1), ("e2", "v", "v", 1),
        ("f1", "v", "v", 2), ("f2", "v", "v", 2)],
    [(("e1", "f1"), ("f1", "e1")), (("e1", "f2"), ("f1", "e2")),
     (("e2", "f1"), ("f2", "e1")), (("e2", "f2"), ("f2", "e2"))])


class TestRepeatedCalls:
    """run(argv) may be called many times in one process: the parser is
    built once and each call still forms its work afresh."""

    def test_parser_is_built_once(self, loop_file, torus_file, monkeypatch):
        _call(["clifford", "--kmax", "1"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["analyze", loop_file], ["trace", loop_file],
                     ["ktheory", loop_file], ["hochschild", torus_file],
                     ["spectral", loop_file, "--window", "100"],
                     ["conditions", torus_file], ["clifford", "--kmax", "2"]):
            assert _call(argv)[0] == 0, argv
        assert _call(["conditions", loop_file, "--level", "0"])[0] == EX_USAGE
        assert built == []

    def test_no_state_leaks_between_calls(self, tree_file, tmp_path,
                                          monkeypatch):
        # the usage text wraps at the terminal width, so both sides get one
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["conditions", tree_file, "--end-value", "tail:c1=1/2",
             "--end-value", "tail:c2=3"],
            ["conditions", tree_file],  # --end-value's append list is fresh
            ["conditions", tree_file, "--level", "0"],
            ["clifford", "--kmax", "3"],
            ["clifford"],
        ]

        def report(out):
            return out.read_bytes() if out.exists() else None

        shared, alone = [], []
        for i, argv in enumerate(calls):
            out = tmp_path / f"shared{i}.json"
            code, _, err = _call(argv + ["--out", str(out)])
            shared.append((code, err, report(out)))
        for i, argv in enumerate(calls):
            out = tmp_path / f"alone{i}.json"
            done = _run_python(
                "from graphtriple.cli import run\n"
                "try:\n"
                f"    code = run({argv + ['--out', str(out)]!r})\n"
                "except SystemExit as exc:\n"
                "    code = exc.code\n"
                "print(code)\n")
            alone.append((int(done.stdout), done.stderr, report(out)))
        assert shared == alone
        assert [c for c, _, _ in shared] == [0, 0, EX_USAGE, 0, 0]
        assert shared[0][2] != shared[1][2]
        assert shared[2][2] is None and shared[2][1].startswith("usage:")

    @pytest.mark.parametrize("doc,trace_exists", [
        (_TORUS_DOCUMENT, True), (_NO_TRACE_DOCUMENT, False),
    ], ids=["torus", "no_trace"])
    def test_one_trace_solve_per_conditions_request(
            self, doc, trace_exists, tmp_path, monkeypatch):
        solves = []
        solve = conditions.solve_kgraph_trace

        def counted(g):
            solves.append(g)
            return solve(g)

        monkeypatch.setattr(conditions, "solve_kgraph_trace", counted)
        path = tmp_path / "kgraph.json"
        path.write_text(json.dumps(doc))
        first = _call(["conditions", str(path)])
        assert len(solves) == 1
        # a second identical request solves again: no trace is kept
        assert _call(["conditions", str(path)]) == first
        assert len(solves) == 2
        hypotheses = json.loads(first[1])["hypotheses"]
        assert hypotheses["faithful_graph_trace_exists"] is trace_exists


_BASE_DOCUMENTS = [
    graph_to_document(single_loop(2)),
    graph_to_document(tree_with_ends(2)),
    graph_to_document(loop_with_exit()),
    _TORUS_DOCUMENT,
    _NO_TRACE_DOCUMENT,
    _kgraph_document(
        2, [("a", "u", "w", 1), ("b", "w", "u", 1),
            ("f", "u", "u", 2), ("g", "w", "w", 2)],
        [(("a", "g"), ("f", "a")), (("b", "f"), ("g", "b"))]),
]
_DOCUMENT_EXITS = {0, 2, 3, EX_DATAERR, EX_UNAVAILABLE}
_FUZZED_COMMANDS = [
    ["analyze"], ["trace"], ["ktheory"], ["hochschild"],
    ["spectral", "--window", "64"], ["conditions", "--level", "1"],
]


@st.composite
def _mutated_documents(draw):
    """A valid presentation (a small drawn digraph or a fixed k-graph) with
    up to two faults drawn into it."""
    if draw(st.booleans()):
        names = ["u", "v", "w"][:draw(st.integers(1, 3))]
        pairs = draw(st.lists(st.tuples(st.sampled_from(names),
                                        st.sampled_from(names)), max_size=4))
        doc = {"k": 1, "vertices": names, "tails": draw(st.lists(
                   st.sampled_from(names), unique=True)),
               "edges": [{"id": f"e{i}", "source": s, "range": r}
                         for i, (s, r) in enumerate(pairs)]}
    else:
        doc = json.loads(json.dumps(draw(st.sampled_from(_BASE_DOCUMENTS))))
    odd = st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
                    st.sampled_from(["2", 2.0, [2], {}]))
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from([
            "k", "endpoint", "color", "squares", "drop_field", "extra_field",
            "drop_edge", "tails"]))
        edges = doc.get("edges")
        if fault == "k":
            doc["k"] = draw(odd)
        elif fault in ("endpoint", "color", "drop_edge") and edges:
            i = draw(st.integers(0, len(edges) - 1))
            if fault == "drop_edge":
                del edges[i]
            elif fault == "color":
                edges[i]["color"] = draw(odd)
            else:
                edges[i][draw(st.sampled_from(["source", "range"]))] = \
                    draw(st.sampled_from(["v", "zz", 5]))
        elif fault == "squares":
            doc["squares"] = draw(st.sampled_from([
                [], "ef", {"first": ["e", "f"]},
                [{"first": ["e"], "second": ["f", "e"]}],
                [{"first": ["e", "zz"], "second": ["zz", "e"]}],
                [{"first": ["e", "f"], "second": ["e", "f"]}],
                [{"first": ["e", "f"], "second": ["f", "e"], "third": []}],
            ]))
        elif fault == "drop_field":
            doc.pop(draw(st.sampled_from(["k", "vertices", "edges", "tails"])),
                    None)
        elif fault == "extra_field":
            doc[draw(st.sampled_from(["source_tails", "colour"]))] = \
                draw(st.sampled_from([["v"], ["zz"], "v"]))
        elif fault == "tails":
            doc["tails"] = draw(st.sampled_from([["zz"], ["v"], [5], None]))
    return json.dumps(doc)


_DOCUMENT_TEXTS = st.one_of(_mutated_documents(), st.one_of(
    st.one_of(st.none(), st.integers(), st.text(max_size=3),
              st.lists(st.integers(), max_size=2)).map(json.dumps),
    st.text(max_size=6),
))


class TestFuzzedDocuments:
    @settings(max_examples=100, deadline=None)
    @given(text=_DOCUMENT_TEXTS)
    def test_no_traceback_and_identical_reruns(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(text, encoding="utf-8")
        for command in _FUZZED_COMMANDS:
            argv = [command[0], str(path)] + command[1:]
            first = _call(argv)
            assert first[0] in _DOCUMENT_EXITS, (argv, first)
            assert "Traceback" not in first[2]
            assert _call(argv) == first


def test_no_request_tests_membership_on_the_tail_tuples(tmp_path,
                                                        monkeypatch):
    """`tails` and `source_tails` are sorted tuples for the reports; every
    membership test goes through the frozensets beside them, so none is
    O(n) per vertex on a large tree."""
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(graph_to_document(random_tree(300))))
    tested = []

    class CountingTuple(tuple):
        def __contains__(self, item):
            tested.append(item)
            return tuple.__contains__(self, item)

    init = GraphPresentation.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.tails = CountingTuple(self.tails)
        self.source_tails = CountingTuple(self.source_tails)

    monkeypatch.setattr(GraphPresentation, "__init__", counting_init)
    for argv in (["analyze", str(path)], ["trace", str(path)],
                 ["conditions", str(path)],
                 ["spectral", str(path), "--vertex", "v0",
                  "--window", "1000"]):
        code, _, err = _call(argv)
        assert code in (0, 2, 3), (argv, err)
    # the fixed-point canonical form no request reaches, walked from every
    # vertex to its ends
    g = random_tree(300)
    canonical_F_form_numeric([(1, v) for v in g.vertices], g)
    assert tested == []
