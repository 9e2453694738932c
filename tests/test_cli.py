import json
import os

import pytest

from cutgame import arena, cli
from cutgame.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_SOFTWARE, EXIT_USAGE, dispatch
from cutgame.core import cutter_replies
from cutgame.strategy import MarkerStrategy, StrategyError

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "corpus")


def test_verify_marker_exit_and_report(tmp_path, capsys):
    out = os.path.join(tmp_path, "report.json")
    code = dispatch(["--out", out, "verify-marker", "--g0", "2"])
    assert code == EXIT_PASS
    data = json.load(open(out))
    assert data["bound"] == 6 and data["verdict"] == "pass"


def test_cop_number_prints_value(capsys):
    code = dispatch(["cop-number", "--g6", "C~", "--k-max", "3"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.strip() == "1"


def test_exact_value_prints_value(capsys):
    code = dispatch(["exact-value", "--g0", "1"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.strip() == "4"
    code = dispatch(["--format", "json", "exact-value", "--g0", "0"])
    assert code == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 2


@pytest.mark.parametrize("found", [3, 5])
def test_exact_value_outside_the_bounds_fails(monkeypatch, capsys, found):
    # at g0=1 the cutter threshold and the marker bound are both 4
    monkeypatch.setattr(cli, "exact_value", lambda g0, budget, use_memo: found)
    assert dispatch(["exact-value", "--g0", "1"]) == EXIT_FAIL
    assert capsys.readouterr().out.splitlines() == [str(found), "verdict: fail"]
    assert dispatch(["--format", "json", "exact-value", "--g0", "1"]) == EXIT_FAIL
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == found and data["verdict"] == "fail"


def _internal_error(argv, capsys) -> str:
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_SOFTWARE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: internal: ")
    return lines[0]


def test_solver_runtime_error_exits_70(monkeypatch, capsys):
    # an unrestricted cutter: the solver meets a legal reply that loses a
    # label, so the value does not rise by one
    monkeypatch.setattr(arena, "legal_replies", lambda hist, marked: cutter_replies(marked))
    assert "not by one" in _internal_error(["exact-value", "--g0", "1"], capsys)


def test_strategy_error_exits_70(monkeypatch, capsys):
    def refuse(self, phase, state, reply):
        raise StrategyError(f"cannot absorb kind {reply.kind}")

    monkeypatch.setattr(MarkerStrategy, "advance", refuse)
    assert "cannot absorb" in _internal_error(["play", "--g0", "2"], capsys)


def test_genus_command(capsys):
    code = dispatch(["genus", "--g6", "D~{"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("g6, n, edges, systems_checked", [
    ("D~{", 5, 10, 10),
    ("EFz_", 6, 9, 6),
    ("H{S{aSf", 9, 18, 416),
], ids=["K5", "K33", "torus3x3"])
def test_genus_json_report(capsys, g6, n, edges, systems_checked):
    assert dispatch(["--format", "json", "genus", "--g6", g6]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out) == {
        "mode": "genus", "n": n, "edges": edges, "genus": 1, "lower_bound": 1,
        "systems_checked": systems_checked,
    }


def test_verify_cutter_sampled(tmp_path):
    out = os.path.join(tmp_path, "r.json")
    code = dispatch(["--out", out, "verify-cutter", "--g0", "2", "--sample", "50", "--seed", "3"])
    assert code == EXIT_PASS
    data = json.load(open(out))
    assert data["budget"]["seed"] == 3
    assert data["budget"]["marker_sampling"] == "random"


def test_verify_refined(capsys):
    assert dispatch(["verify-refined", "--g0", "2"]) == EXIT_PASS


def test_play_trace(tmp_path, capsys):
    trace = os.path.join(tmp_path, "t.jsonl")
    code = dispatch(["play", "--g0", "3", "--refined", "--trace", trace])
    assert code == EXIT_PASS
    lines = [json.loads(l) for l in open(trace) if l.strip()]
    assert lines[0]["ply"] == 0
    assert lines[0]["value"] == 3
    assert lines[0]["potential"] == "-3/1"
    fields = list(lines[0].keys())
    assert fields == ["ply", "mover", "mark", "reply", "value", "genus", "potential", "canonical_key"]


def test_check_corpus_bundled_and_dir(tmp_path):
    assert dispatch(["check-corpus"]) == EXIT_PASS
    assert dispatch(["check-corpus", "--dir", CORPUS_DIR]) == EXIT_PASS


def test_corpus_mismatch_fails(tmp_path):
    with open(os.path.join(tmp_path, "bad.g6"), "w") as fh:
        fh.write("C~\n")
    with open(os.path.join(tmp_path, "bad.json"), "w") as fh:
        json.dump([{"name": "K4", "declared_genus": 0, "expected_cop_number": 3}], fh)
    assert dispatch(["check-corpus", "--dir", str(tmp_path)]) == EXIT_FAIL


@pytest.mark.parametrize("sidecar", [
    {"a": 1},
    [1],
    [{"declared_genus": "one"}],
    [{"expected_cop_number": True}],
], ids=["not-a-list", "not-an-object", "string-genus", "bool-cop-number"])
def test_malformed_sidecar_exits_64(sidecar, tmp_path, capsys):
    with open(os.path.join(tmp_path, "x.g6"), "w") as fh:
        fh.write("C~\n")
    with open(os.path.join(tmp_path, "x.json"), "w") as fh:
        json.dump(sidecar, fh)
    code = dispatch(["check-corpus", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "x.json" in lines[0]


def test_budget_exhaustion_exit():
    assert dispatch(["--budget-states", "3", "verify-marker", "--g0", "2"]) == EXIT_INCONCLUSIVE


def test_usage_errors():
    assert dispatch(["no-such-command"]) == EXIT_USAGE
    assert dispatch(["verify-marker"]) == EXIT_USAGE  # missing --g0
    assert dispatch(["cop-number", "--k-max", "2"]) == EXIT_USAGE  # no graph source


@pytest.mark.parametrize("argv", [
    ["verify-marker", "--g0", "-1"],
    ["verify-cutter", "--g0", "-1"],
    ["exact-value", "--g0", "-1"],
    ["verify-refined", "--g0", "0"],
    ["play", "--g0", "0", "--refined"],
    ["genus", "--g6", "!!"],
    ["genus", "--graph", "{tmp}/blank.g6"],
    ["cop-number", "--graph", "{tmp}/missing.g6"],
    ["check-corpus", "--dir", "{tmp}/missing"],
], ids=["marker-negative", "cutter-negative", "exact-negative", "refined-zero", "play-refined-zero",
        "bad-graph6", "no-graph6-line", "missing-graph", "missing-dir"])
def test_bad_input_exits_64(argv, tmp_path, capsys):
    with open(os.path.join(tmp_path, "blank.g6"), "w") as fh:
        fh.write("\n\n")
    code = dispatch([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--budget-states", "-1", "verify-marker", "--g0", "2"],
    ["--budget-states", "-1", "exact-value", "--g0", "1"],
    ["--budget-states", "-5", "genus", "--g6", "D~{"],
    ["--budget-states", "-1", "cop-number", "--g6", "C~"],
    ["verify-cutter", "--g0", "2", "--sample", "-3"],
], ids=["marker", "exact", "genus", "cop-number", "negative-sample"])
def test_negative_budget_or_sample_exits_64(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_zero_budget_is_inconclusive(capsys):
    assert dispatch(["--budget-states", "0", "verify-marker", "--g0", "2"]) == EXIT_INCONCLUSIVE
    assert dispatch(["--budget-states", "0", "genus", "--g6", "D~{"]) == EXIT_INCONCLUSIVE


def test_cop_number_over_position_budget_exits_2(tmp_path, capsys):
    from cutgame.graphs import cycle_graph, emit_graph6

    path = os.path.join(tmp_path, "c300.g6")
    with open(path, "w") as fh:
        fh.write(emit_graph6(cycle_graph(300)) + "\n")
    code = dispatch(["cop-number", "--graph", path, "--k-max", "2"])  # two cops: 27M positions
    captured = capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("inconclusive: ")


@pytest.mark.parametrize("argv", [
    ["cop-number", "--g6", "C?"],
    ["cop-number", "--g6", "C~", "--k-max", "0"],
    ["cop-number", "--g6", "?", "--k-max", "3"],
], ids=["disconnected", "k-max-zero", "empty"])
def test_cop_number_bad_input_exits_64(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cop_number_above_k_max_exits_2(capsys):
    code = dispatch(["cop-number", "--g6", "IheA@GUAo", "--k-max", "2"])  # Petersen needs 3
    captured = capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("inconclusive: ")
