import json
import os

import pytest

from cutgame import arena, cli, equivalence, graphs
from cutgame.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_SOFTWARE, EXIT_USAGE, dispatch
from cutgame.core import cutter_replies
from cutgame.strategy import ActiveCycle, BoundingPhase, MarkerStrategy, StrategyError

from conftest import switch_at_genus_two

CORPUS_DIR = os.path.join(os.path.dirname(graphs.__file__), "bundled")


def test_verify_marker_exit_and_report(tmp_path, capsys):
    out = os.path.join(tmp_path, "report.json")
    code = dispatch(["--out", out, "verify-marker", "--g0", "2"])
    assert code == EXIT_PASS
    data = json.load(open(out))
    assert data["bound"] == 6 and data["verdict"] == "pass"


@pytest.mark.parametrize("flag, value, other", [
    ("--budget-states", "10", "2000000"),
    ("--format", "json", "text"),
    ("--out", "{tmp}/a.json", "{tmp}/b.json"),
], ids=["budget-states", "format", "out"])
def test_a_global_flag_reads_alike_on_either_side_of_the_subcommand(flag, value, other, tmp_path, capsys):
    """Before or after the subcommand, a global flag gives the same exit
    code, stdout and written files; given on both sides, the later wins."""
    command = ["exact-value", "--g0", "2"]

    def run(*argv):
        code = dispatch([a.replace("{tmp}", str(tmp_path)) for a in argv])
        written = {}
        for path in sorted(tmp_path.iterdir()):
            written[path.name] = path.read_text()
            path.unlink()
        return code, capsys.readouterr(), written

    outcomes = []
    for first, last in ((value, other), (other, value)):
        given = run(flag, last, *command)
        assert run(*command, flag, last) == given
        assert run(flag, first, *command, flag, last) == given
        outcomes.append(given)
    assert outcomes[0] != outcomes[1]  # the two values differ in effect


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


def test_exact_value_above_the_bound_fails(monkeypatch, capsys):
    # the solver searches past the bound it is checking: with the bound
    # lowered to 3, the value 4 of g0=1 is found and fails
    lowered = lambda g0: (4 * g0 + 10) // 3 - 1
    monkeypatch.setattr(arena, "marker_value_bound", lowered)
    monkeypatch.setattr(cli, "marker_value_bound", lowered)
    assert dispatch(["exact-value", "--g0", "1"]) == EXIT_FAIL
    assert capsys.readouterr().out.splitlines() == ["4", "verdict: fail"]


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
    monkeypatch.setattr(arena, "legal_replies", lambda marked: cutter_replies(marked))
    assert "not by one" in _internal_error(["exact-value", "--g0", "1"], capsys)


def test_engine_value_error_exits_70(monkeypatch, capsys):
    # a ValueError out of the engine is an internal fault, not bad input:
    # only validation's InputError exits 64
    def broken(marked):
        raise ValueError("reply list out of step")

    monkeypatch.setattr(arena, "legal_replies", broken)
    assert _internal_error(["verify-marker", "--g0", "2"], capsys) == "error: internal: reply list out of step"


@pytest.mark.parametrize("fault, line", [
    (IndexError("tuple index out of range"), "error: internal: tuple index out of range"),
    (AssertionError(), "error: internal: AssertionError"),
], ids=["IndexError", "AssertionError"])
def test_any_other_engine_exception_exits_70(monkeypatch, capsys, fault, line):
    # a fault of the program that is neither a RuntimeError nor a
    # ValueError still ends in one line and exit 70, not a traceback
    def broken(state):
        raise fault

    monkeypatch.setattr(arena, "canonical_key", broken)
    assert _internal_error(["verify-marker", "--g0", "1"], capsys) == line


@pytest.mark.usefixtures("tripled_label")
def test_solver_invalid_state_exits_70(capsys):
    assert "invalid state (properness)" in _internal_error(["exact-value", "--g0", "1"], capsys)


@pytest.mark.usefixtures("tripled_label")
@pytest.mark.parametrize("marker", ["auto", "random"])
def test_play_invalid_state_exits_70(capsys, marker):
    argv = ["play", "--g0", "2", "--marker", marker, "--cutter", "random", "--seed", "1"]
    assert "invalid state (properness)" in _internal_error(argv, capsys)


def test_play_value_audit_exits_70(monkeypatch, capsys):
    # replies that lose a label become legal, and the value falls
    monkeypatch.setattr(equivalence, "precedes", lambda candidate, earlier: False)
    argv = ["play", "--g0", "2", "--marker", "random", "--cutter", "random"]
    assert _internal_error(argv, capsys) == "error: internal: value did not increase by one"


@pytest.mark.usefixtures("swapped_arcs")
def test_play_without_a_licensed_reply_exits_70(capsys):
    # the auto cutter reads its arcs the wrong way round
    assert (_internal_error(["play", "--g0", "2"], capsys)
            == "error: internal: cutter had no potential-non-increasing reply")


@pytest.mark.parametrize("refined", [False, True], ids=["plain", "refined"])
def test_auto_play_exits_0_at_every_genus(capsys, refined):
    # the cutter runs out of licensed replies at its threshold in the
    # plain game (g0=3 first) and in the seeded game (g0=5 first); past
    # its claim that is no fault, and the play goes on to its end
    for g0 in range(1 if refined else 0, 31):
        argv = ["play", "--g0", str(g0)] + (["--refined"] if refined else [])
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == EXIT_PASS, (g0, captured.err)
        assert json.loads(captured.out)["result"] in ("cutter_stuck", "switch_to_cops")


def test_play_switch_audit_exits_70(monkeypatch, capsys):
    """A switch to the cops at genus 2 is the strategy's failure in
    ``play`` as in ``verify_refined``: the audit reads the state, not
    the strategy's claim."""
    switch_at_genus_two(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^switch to cops at value 5, genus 2$"):
        arena.play_game(5, refined=True)
    assert (_internal_error(["play", "--g0", "5", "--refined"], capsys)
            == "error: internal: switch to cops at value 5, genus 2")


def test_mark_off_the_state_is_not_bad_input(monkeypatch, capsys):
    monkeypatch.setattr(ActiveCycle, "mark_vertex", lambda self, atom_idx: (self.cycle, 99))
    assert dispatch(["verify-marker", "--g0", "3"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "failure: marking failed in configuration 1: mark references missing vertex (0, 99)" in out
    assert "mark references missing vertex" in _internal_error(["play", "--g0", "3"], capsys)


def test_strategy_error_exits_70(monkeypatch, capsys):
    def refuse(self, phase, state, reply):
        raise StrategyError(f"cannot absorb kind {reply.kind}")

    monkeypatch.setattr(MarkerStrategy, "advance", refuse)
    assert "cannot absorb" in _internal_error(["play", "--g0", "2"], capsys)


def test_transition_key_error_exits_70(monkeypatch, capsys):
    """A ``KeyError`` out of the marker strategy's transition is the
    strategy's failure in ``verify-marker`` and in ``play`` alike."""
    def lost(self, phase, state, reply):
        raise KeyError((0, 5))

    monkeypatch.setattr(MarkerStrategy, "advance", lost)
    # the verifier fails on the first legal reply, the play on the cutter's
    assert dispatch(["verify-marker", "--g0", "2"]) == EXIT_FAIL
    assert "failure: transition from preparatory(0) on kind A: (0, 5)" in capsys.readouterr().out
    assert (_internal_error(["play", "--g0", "2"], capsys)
            == "error: internal: transition from preparatory(0) on kind B: (0, 5)")


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


def test_check_corpus_disconnected_graph_exits_64(tmp_path, capsys):
    with open(os.path.join(tmp_path, "split.g6"), "w") as fh:
        fh.write("C~\nC?\n")
    code = dispatch(["check-corpus", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: split[1]: the pursuit game needs a connected graph"]


def test_check_corpus_above_k_max_is_inconclusive(tmp_path, capsys):
    assert dispatch(["check-corpus", "--k-max", "2"]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "petersen: cop=None genus=None INCONCLUSIVE cop oracle: no winning strategy with up to 2 cops" in out
    assert "FAIL" not in out
    # a failed entry outranks an inconclusive one
    with open(os.path.join(tmp_path, "mixed.g6"), "w") as fh:
        fh.write("C~\nIheA@GUAo\n")
    with open(os.path.join(tmp_path, "mixed.json"), "w") as fh:
        json.dump([{"name": "K4", "expected_cop_number": 3}, {"name": "petersen"}], fh)
    assert dispatch(["check-corpus", "--dir", str(tmp_path), "--k-max", "2"]) == EXIT_FAIL


def test_check_corpus_honours_the_genus_budget(capsys):
    from cutgame.graphs import RotationBudgetError, bundled_corpus, genus_exact

    def over_budget(graph) -> bool:
        try:
            genus_exact(graph, 0)
        except RotationBudgetError:
            return True
        return False

    need_search = {e.name for e in bundled_corpus() if over_budget(e.graph)}
    assert need_search
    assert dispatch(["--format", "json", "check-corpus"]) == EXIT_PASS
    exact = json.loads(capsys.readouterr().out)
    assert dispatch(["--budget-states", "0", "--format", "json", "check-corpus"]) == EXIT_PASS
    budgeted = json.loads(capsys.readouterr().out)
    assert {e["name"] for e in budgeted["entries"] if e["genus_source"] == "declared"} == need_search
    assert [e["genus"] for e in budgeted["entries"]] == [e["genus"] for e in exact["entries"]]


@pytest.mark.parametrize("sidecar", [
    {"a": 1},
    [1],
    [{"declared_genus": "one"}],
    [{"expected_cop_number": True}],
    [{"name": "K4"}, {"name": "ghost", "expected_cop_number": 9}],
    [],
], ids=["not-a-list", "not-an-object", "string-genus", "bool-cop-number", "entry-without-graph",
        "graph-without-entry"])
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


@pytest.mark.parametrize("files, argv", [
    ({"x.g6": b"C~\n", "x.json": b"[{"}, ["check-corpus", "--dir", "{tmp}"]),
    ({"x.g6": b"C~\n", "x.json": b"\xff\xfe"}, ["check-corpus", "--dir", "{tmp}"]),
    ({"x.g6": b"C~\n\xff\n"}, ["check-corpus", "--dir", "{tmp}"]),
    ({"x.g6": b"\xffC~\n"}, ["genus", "--graph", "{tmp}/x.g6"]),
], ids=["sidecar-not-json", "sidecar-not-utf8", "corpus-not-utf8", "graph-not-utf8"])
def test_unreadable_file_exits_64(files, argv, tmp_path, capsys):
    # a file that does not decode is bad input, not an internal error
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    code = dispatch([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {tmp_path}")


def test_sidecar_error_names_the_key_it_does_not_know(tmp_path, capsys):
    # a misspelled key would otherwise be dropped, and the entry checked without it
    with open(os.path.join(tmp_path, "x.g6"), "w") as fh:
        fh.write("C~\n")
    sidecar = os.path.join(tmp_path, "x.json")
    with open(sidecar, "w") as fh:
        json.dump([{"name": "K4", "expected_cop": 9}], fh)
    assert dispatch(["check-corpus", "--dir", str(tmp_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {sidecar}[0]: unknown key 'expected_cop', expected name, declared_genus, expected_cop_number"]


@pytest.mark.parametrize("files", [{}, {"blank.g6": "\n\n", "notes.txt": "C~\n"}],
                         ids=["no-g6-file", "blank-g6-only"])
def test_corpus_with_no_graph_exits_64(files, tmp_path, capsys):
    # an empty corpus is bad input, not a pass over nothing
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code = dispatch(["check-corpus", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {tmp_path}: no graph in any *.g6 file"]


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
    ["check-corpus", "--k-max", "0"],
], ids=["marker-negative", "cutter-negative", "exact-negative", "refined-zero", "play-refined-zero",
        "bad-graph6", "no-graph6-line", "missing-graph", "missing-dir", "corpus-k-max-zero"])
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


def test_genus_budget_is_passed_through_unchanged(capsys):
    # a zero budget stays zero: the message names the budget given
    assert dispatch(["--budget-states", "0", "genus", "--g6", "E~~w"]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == "inconclusive: the genus search needs more than 0 nodes (genus at least 1)\n"


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


def test_binding_off_the_cycle_is_a_failure(monkeypatch, tmp_path, capsys):
    """A marker strategy that binds a position past its cycle's end
    fails ``verify-marker`` with a witness; it is not a traceback."""
    real = MarkerStrategy._advance_prep

    def shifted(self, phase, reply):
        nxt = real(self, phase, reply)
        if isinstance(nxt, BoundingPhase):
            (ac,) = nxt.actives
            u, nesting = ac.pos
            nxt = BoundingPhase(nxt.config, (ActiveCycle(ac.cycle, (u + 7, nesting)),))
        return nxt

    monkeypatch.setattr(MarkerStrategy, "_advance_prep", shifted)
    out = os.path.join(tmp_path, "report.json")
    assert dispatch(["--out", out, "verify-marker", "--g0", "2"]) == EXIT_FAIL
    report = json.load(open(out))
    assert report["verdict"] == "fail"
    assert report["failure"] == "binding audit failed in configuration 1: bound position 7 is off a cycle of 2 edges"
    assert [rec["ply"] for rec in report["witness"]] == [0, 1, 2]
