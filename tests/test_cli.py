import json

import pytest

from graphtriple.cli import EX_DATAERR, EX_NOINPUT, EX_USAGE, run

from corpus import single_loop, tree_with_ends
from graphtriple.graphs import graph_to_document


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
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "/nonexistent/g.json"])
        assert exc.value.code == EX_NOINPUT

    def test_validation_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 1, "vertices": ["v"], "edges": '
                       '[{"id": "e", "source": "v", "range": "w"}], "tails": []}')
        with pytest.raises(SystemExit) as exc:
            run(["analyze", str(bad)])
        assert exc.value.code == EX_DATAERR

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
        with pytest.raises(SystemExit) as exc:
            run(["analyze", str(bad)])
        assert exc.value.code == EX_DATAERR
        assert "validation failure" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["-5", "0", "ten"])
    def test_non_positive_window_is_usage_error(self, loop_file, window, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["conditions", loop_file, "--window", window])
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

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit) as exc:
            run(["analyze", str(bad)])
        assert exc.value.code == EX_DATAERR


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

    def test_spectral_vertex_profile(self, tree_file, capsys):
        assert run(["spectral", tree_file, "--vertex", "b",
                    "--window", "5000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["limit"] - 4.0) < 0.2

    def test_conditions_exit_zero(self, loop_file, capsys):
        assert run(["conditions", loop_file, "--window", "5000"]) == 0
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
        assert run(["conditions", str(path), "--window", "5000"]) == 2

    def test_byte_identical_reruns(self, loop_file, capsys):
        run(["conditions", loop_file, "--window", "5000"])
        first = capsys.readouterr().out
        run(["conditions", loop_file, "--window", "5000"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, loop_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert run(["analyze", loop_file, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["structural"]["loops"] == 1
