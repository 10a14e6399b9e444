import argparse
import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freeknot.cli
import freeknot.group
import freeknot.parity
import oracles
from freeknot import (ChordDiagram, NormalForm, distinguish, enumerate_moves,
                      evaluate, parse_gauss_code, search_nontrivial,
                      serialize, word_of)
from freeknot.cli import main
from freeknot.parity import _levels, filtration
from support import diagrams

WITNESS = "1 2 1 3 4 2 5 3 5 4"
WITNESS_ROTATED = "1 2 3 4 1 5 3 5 4 2"
THREE_LEVELS = "1 2 3 4 3 5 6 5 4 1 2 6"  # two chords in each of a0, a1, a2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_plain(*argv):
    """main's exit status and stdout, without pytest's capsys fixture,
    which a hypothesis test cannot take."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestInvariant:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "invariant", "--gauss", "1 2 1 3 2 3")
        assert code == 0
        assert out.splitlines() == [
            "gauss: 1 2 1 3 2 3",
            "m=1 levels: |a0|=2 |a1|=1",
            "m=1 splits: P0=0 D0=2",
            "m=1 word: D0 F D0 D0 F D0",
            "m=1 normal form: x=[0] eps=0 (identity)",
        ]

    def test_several_diagrams_and_depths(self, capsys):
        code, out, _ = run(capsys, "invariant", "--gauss", "1 1",
                           "--gauss", WITNESS, "--m", "1", "--m", "2")
        assert code == 0
        assert out.count("gauss:") == 2
        assert "m=2 word:" in out
        assert "x=[8]" in out

    def test_json_is_deterministic(self, capsys):
        args = ("invariant", "--json", "--gauss", WITNESS, "--m", "2")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["command"] == "invariant"
        result = payload["diagrams"][0]["results"][0]
        assert result["m"] == 2
        assert result["normal_form"] == {"x": [8, 0], "eps": 0, "m": 2}

    def test_one_filtration_per_diagram(self, capsys, monkeypatch):
        """Every depth is read off one level walk at the deepest, with
        no other walk for the word or the value."""
        calls = []

        def counted(chords, m):
            calls.append(m)
            return _levels(chords, m)

        for module in (freeknot.parity, freeknot.group):
            monkeypatch.setattr(module, "_levels", counted)
        code, _, _ = run(capsys, "invariant", "--json", "--gauss", WITNESS,
                         "--gauss", THREE_LEVELS, "--m", "1", "--m", "3",
                         "--m", "2")
        assert code == 0
        assert calls == [3, 3]

    def test_deep_depth_takes_linear_time(self, capsys):
        """Spelling each depth's word is linear in the deepest depth: at
        m = 50000 the quadratic spelling took about a minute.  Both
        chords of 1 2 1 2 leave in round 0, so the word is the same at
        every depth and x is zero above level 0."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "invariant", "--json", "--m", "1",
                           "--m", "50000", "--gauss", "1 2 1 2")
        assert time.perf_counter() - start < 5
        assert code == 0
        shallow, deep = json.loads(out)["diagrams"][0]["results"]
        assert shallow["word"] == deep["word"] == ["P0"] * 4
        assert deep["normal_form"]["x"][0] == shallow["normal_form"]["x"][0]
        assert len(deep["normal_form"]["x"]) == 50000
        assert not any(deep["normal_form"]["x"][1:])

    def test_failure_leaves_stdout_empty(self, capsys, monkeypatch):
        """The second diagram's filtration fails after the first's
        entries are built."""
        calls = []

        def failing_second(d, m):
            calls.append(m)
            if len(calls) == 2:
                raise ValueError("second filtration fails")
            return filtration(d, m)

        monkeypatch.setattr(freeknot.cli, "filtration", failing_second)
        code, out, err = run(capsys, "invariant", "--gauss", "1 1",
                             "--gauss", "1 2 1 2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(diagrams(max_n=40), max_size=3),
           st.lists(st.integers(1, 4), min_size=1, max_size=4))
    @example([parse_gauss_code(WITNESS), parse_gauss_code(THREE_LEVELS)],
             [3, 1, 2, 1])
    def test_json_agrees_with_the_per_depth_oracle(self, ds, m_values):
        """The empty diagram comes first; the m-lists may repeat depths
        and run downwards."""
        ds = [ChordDiagram(), *ds]
        code, out = run_plain(
            "invariant", "--json",
            *(a for d in ds for a in ("--gauss", serialize(d))),
            *(a for m in m_values for a in ("--m", str(m))))
        assert code == 0
        results = [entry["results"]
                   for entry in json.loads(out)["diagrams"]]
        assert results == [[oracles.describe_per_depth(d, m)
                            for m in m_values] for d in ds]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "invariant", "--gauss", "1 2 3")
        assert code == 2
        assert "error:" in err

    def test_no_input_exits_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, "invariant")
        assert code == 2
        assert "no gauss codes" in err
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, err = run(capsys, "invariant")
        assert (code, out) == (2, "")
        assert "no gauss codes given" in err

    def test_blank_stdin_line_is_the_empty_diagram(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n"))
        code, out, _ = run(capsys, "invariant")
        assert code == 0
        assert out.splitlines()[0] == "gauss: (empty)"


class TestCompare:
    def test_same_exits_0(self, capsys):
        code, out, _ = run(capsys, "compare", "--gauss", "1 2 3 1 2 3",
                           "--gauss", "1 1")
        assert code == 0
        assert "verdict: same_invariant" in out

    def test_distinct_exits_1(self, capsys):
        code, out, _ = run(capsys, "compare", "--gauss", WITNESS,
                           "--gauss", "1 1")
        assert code == 1
        assert "m=1: distinct" in out
        assert "verdict: certified_distinct" in out

    def test_free_mode_finds_conjugates(self, capsys):
        code, out, _ = run(capsys, "compare", "--mode", "free",
                           "--gauss", WITNESS, "--gauss", WITNESS_ROTATED)
        assert code == 0
        assert "m=1: conjugate witness=P0" in out
        assert "verdict: same_invariant" in out

    def test_free_mode_decides_every_depth(self, capsys):
        code, out, _ = run(capsys, "compare", "--mode", "free", "--json",
                           "--gauss", WITNESS, "--gauss", WITNESS_ROTATED,
                           "--m", "1", "--m", "2", "--m", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "same_invariant"
        for entry in payload["per_m"]:
            assert entry["relation"] == "conjugate"
            left, right = (NormalForm(tuple(entry[side]["x"]),
                                      entry[side]["eps"])
                           for side in ("left", "right"))
            assert oracles.conjugate(left, entry["witness"]) == right

    def test_free_mode_distinct_exits_1(self, capsys):
        code, out, _ = run(capsys, "compare", "--mode", "free",
                           "--gauss", WITNESS, "--gauss", "1 1")
        assert code == 1
        assert out.splitlines() == ["mode: free", "m=1: distinct",
                                    "verdict: certified_distinct"]

    @pytest.mark.parametrize("mode, other, relation, witness", [
        ("long", WITNESS, "equal", None),
        ("long", WITNESS_ROTATED, "distinct", None),
        ("free", WITNESS_ROTATED, "conjugate", ["P0"]),
        ("free", "1 1", "distinct", None)])
    def test_json_names_the_relation(self, capsys, mode, other, relation,
                                     witness):
        code, out, _ = run(capsys, "compare", "--json", "--mode", mode,
                           "--gauss", WITNESS, "--gauss", other)
        (entry,) = json.loads(out)["per_m"]
        assert (entry["relation"], entry["witness"]) == (relation, witness)
        assert code == (relation == "distinct")
        left, right = (parse_gauss_code(c) for c in (WITNESS, other))
        assert [entry["left"], entry["right"]] == [
            {"m": 1, "x": list(evaluate(word_of(d, 1)).x), "eps": 0}
            for d in (left, right)]

    def test_json_carries_exit_code(self, capsys):
        code, out, _ = run(capsys, "compare", "--json", "--gauss", WITNESS,
                           "--gauss", "1 1", "--m", "1", "--m", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload["exit_code"] == 1
        assert [e["relation"] for e in payload["per_m"]] \
            == ["distinct", "distinct"]

    def test_one_distinguish_call_per_compare(self, capsys, monkeypatch):
        calls = []

        def counted(d1, d2, m_list, mode):
            calls.append((list(m_list), mode))
            return distinguish(d1, d2, m_list, mode)

        monkeypatch.setattr(freeknot.cli, "distinguish", counted,
                            raising=False)
        code, out, _ = run(capsys, "compare", "--json", "--gauss", WITNESS,
                           "--gauss", "1 1", "--m", "1", "--m", "2")
        assert code == 1
        assert calls == [([1, 2], "long")]
        assert json.loads(out)["verdict"] == "certified_distinct"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "--gauss", "1 2 3",
                           "--gauss", "1 1")
        assert code == 2
        assert "error:" in err

    def test_missing_second_code_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "--gauss", "1 1")
        assert code == 2
        assert "expected 2 gauss codes" in err

    def test_blank_stdin_line_is_the_empty_diagram(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n1 1\n"))
        code, out, _ = run(capsys, "compare")
        assert code == 0
        assert (code, out) == run(capsys, "compare", "--gauss", "",
                                  "--gauss", "1 1")[:2]

    def test_stdin_is_not_read_when_gauss_is_given(self, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 1\n"))
        code, out, err = run(capsys, "compare", "--gauss", "1 1")
        assert (code, out) == (2, "")
        assert "expected 2 gauss codes, got 1" in err


class TestScramble:
    def test_seeded_run_is_reproducible(self, capsys):
        args = ("scramble", "--gauss", "1 2 1 2", "--moves", "12",
                "--seed", "5")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.splitlines() == [
            "seed: 5",
            "applied: 12 moves (size cap 4)",
            "result: 1 2 3 3 2 4 1 4",
        ]
        assert run(capsys, *args)[1] == out

    def test_fresh_seed_is_printed(self, capsys):
        code, out, _ = run(capsys, "scramble", "--gauss", "1 1",
                           "--moves", "3")
        assert code == 0
        assert out.startswith("seed: ")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "scramble", "--json", "--gauss", "1 2 1 2",
                           "--moves", "12", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["gauss"] == "1 2 3 3 2 4 1 4"
        assert payload["seed"] == 5 and payload["size_cap"] == 4

    def test_counts_the_moves_it_applied(self, capsys):
        """The empty diagram under cap 0 takes no move; --json keeps the
        requested count."""
        args = ("scramble", "--gauss", "", "--moves", "3",
                "--max-chords", "0", "--seed", "1")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.splitlines()[1:] == ["applied: 0 moves (size cap 0)",
                                        "result: (empty)"]
        assert json.loads(run(capsys, *args[:1], "--json", *args[1:])[1])[
            "moves"] == 3
        code, out, _ = run(capsys, *args[:-3], "1", "--seed", "2")
        assert out.splitlines()[1:] == ["applied: 3 moves (size cap 1)",
                                        "result: 1 1"]

    @settings(max_examples=60, deadline=None)
    @given(diagrams(max_n=6), st.integers(0, 2))
    @example(ChordDiagram(), 0)
    @example(ChordDiagram(), 1)
    def test_only_the_empty_diagram_under_cap_0_has_no_move(self, d, extra):
        """What the applied count rests on: scramble stops early only
        where no move applies."""
        cap = d.n + extra
        assert bool(enumerate_moves(d, cap)) == bool(d.n or cap)


class TestReduce:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "reduce", "--gauss", "1 2 3 1 2 3")
        assert code == 0
        assert out.splitlines() == [
            "outcome: reduced_to_empty",
            "visited: 3",
            "shortest: yes",
            "path (2 moves):",
            "  r2_remove chords=(1,4),(2,5)",
            "  r1_remove chord=(1,2)",
            "result: (empty)",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json",
                           "--gauss", "1 2 3 1 2 3")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "reduced_to_empty"
        assert payload["gauss"] == ""
        assert len(payload["path"]) == 2
        assert payload["shortest"] is True

    @pytest.mark.parametrize("extra, max_states, max_chords", [
        ((), 10000, 4), (("--max-chords", "7"), 10000, 7),
        (("--max-states", "2"), 2, 4), (("--max-states", "0"), 0, 4)])
    def test_json_echoes_the_caps(self, capsys, extra, max_states,
                                  max_chords):
        """The state cap and the chord budget, n + 1 by default, are the
        arguments reduce ran under."""
        code, out, _ = run(capsys, "reduce", "--json",
                           "--gauss", "1 2 3 1 2 3", *extra)
        payload = json.loads(out)
        assert code == 0
        assert (payload["max_states"], payload["max_chords"]) \
            == (max_states, max_chords)
        assert payload["visited"] <= max_states

    def test_exhausted_under_small_cap(self, capsys):
        code, out, _ = run(capsys, "reduce", "--gauss", WITNESS,
                           "--max-states", "50")
        assert code == 0
        assert "outcome: exhausted" in out


class TestSearch:
    def test_nothing_small(self, capsys):
        code, out, _ = run(capsys, "search", "--max-chords", "4")
        assert code == 0
        assert out == "m=1: 0 witnesses\n"

    def test_five_chords(self, capsys):
        code, out, _ = run(capsys, "search", "--max-chords", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["per_m"] == [{
            "m": 1,
            "witnesses": ["1 2 1 3 4 2 4 5 3 5", WITNESS],
            "examined": 131,
            "complete": True,
        }]

    def test_truncation_is_reported(self, capsys):
        code, out, _ = run(capsys, "search", "--max-chords", "5",
                           "--max-states", "10")
        assert code == 0
        assert out == "m=1: 0 witnesses (truncated after 10 classes)\n"
        code, out, _ = run(capsys, "search", "--max-chords", "5", "--json",
                           "--max-states", "130")
        (entry,) = json.loads(out)["per_m"]
        assert (entry["examined"], entry["complete"]) == (130, False)

    def test_one_call_serves_every_depth(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return search_nontrivial(*args)
        monkeypatch.setattr(freeknot.cli, "search_nontrivial", counted)
        args = ("search", "--json", "--max-chords", "6")
        code, out, _ = run(capsys, *args, "--m", "3", "--m", "1", "--m", "3")
        assert code == 0 and calls == [(6, [3, 1, 3], 10**6)]
        singles = [json.loads(run(capsys, *args, "--m", m)[1])["per_m"]
                   for m in ("3", "1", "3")]
        assert json.loads(out)["per_m"] == [e for (e,) in singles]


class TestSelfcheck:
    def test_small_seeded_run(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--seed", "11",
                           "--samples", "50", "--trials", "30")
        assert code == 0
        assert out.splitlines() == [
            "seed: 11",
            "relations OK; invariance trials 30/30 OK",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--json", "--seed", "11",
                           "--samples", "20", "--trials", "10", "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["relations_ok"] is True
        assert payload["trials_passed"] == 10

    def test_failures_exit_1_and_are_listed(self, capsys, monkeypatch):
        # every tenth trial is a rotation trial: 3 of 30 fail
        monkeypatch.setattr(freeknot.cli, "rotation_conjugacy_trial",
                            lambda rng, m_values: False)
        # the true action breaks the relations and the corrupted one
        # keeps them, so both failures are listed at every depth
        monkeypatch.setattr(freeknot.cli, "relation_check",
                            lambda m, points, action=None: action is not None)
        args = ("selfcheck", "--seed", "11", "--samples", "5",
                "--trials", "30", "--m", "1", "--m", "2")
        code, out, _ = run(capsys, *args)
        assert code == 1
        assert out.splitlines() == [
            "seed: 11",
            "relations FAIL; invariance trials 27/30 FAIL",
            "  relations fail at m=1",
            "  corrupted action not rejected at m=1",
            "  relations fail at m=2",
            "  corrupted action not rejected at m=2",
        ]
        code, out, _ = run(capsys, *args, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["relations_ok"] is False
        assert payload["trials_passed"] == 27
        assert len(payload["relation_failures"]) == 4


class TestMoves:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "moves", "--gauss", "1 1",
                           "--max-chords", "2")
        assert code == 0
        assert out.splitlines() == [
            "r1_remove chord=(1,2)",
            "r1_add gap=0",
            "r1_add gap=1",
            "r1_add gap=2",
            "rotate steps=1",
            "rotate steps=-1",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "moves", "--json", "--gauss", "1 1",
                           "--max-chords", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["moves"][0] == {"kind": "r1_remove", "chord": [1, 2]}

    def test_json_formats_no_text(self, capsys, monkeypatch):
        args = ("moves", "--json", "--gauss", WITNESS)
        expected = run(capsys, *args)

        def failing(move):
            raise AssertionError("text formatted in --json mode")

        monkeypatch.setattr(freeknot.cli, "_move_text", failing)
        assert run(capsys, *args) == expected
        assert expected[0] == 0


class TestArgumentValidation:
    @pytest.mark.parametrize("argv, exit_code, message", [
        (["invariant", "--m", "0", "--gauss", "1 1"], 2, "--m"),
        (["compare", "--m", "-1", "--gauss", "1 1", "--gauss", "1 1"], 2,
         "--m"),
        (["scramble", "--moves", "-5", "--gauss", "1 1", "--seed", "1"], 2,
         "--moves"),
        (["moves", "--max-chords", "-1", "--gauss", "1 1"], 2,
         "--max-chords"),
        (["reduce", "--max-states", "-1", "--gauss", "1 1"], 2,
         "--max-states"),
        (["selfcheck", "--trials", "-1", "--seed", "1"], 2, "--trials"),
        (["compare", "--m", "x", "--gauss", "1 1", "--gauss", "1 1"], 2,
         "--m"),
        (["compare", "--mode", "bogus", "--gauss", "1 1", "--gauss", "1 1"],
         2, "--mode"),
        (["compare", "--m", "0", "--gauss", "1 1", "--gauss", "1 1"], 2,
         "--m"),
        (["selfcheck", "--samples", "0", "--seed", "1"], 2, "--samples"),
    ])
    def test_rejected_before_any_output(self, capsys, argv, exit_code,
                                        message):
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        assert out == ""
        assert f"error: argument {message}: " in err

    @pytest.mark.parametrize("command, lines", [
        ("reduce", "1 1\n1 2 1 2\n"),
        ("compare", "1 1\n1 1\n1 2 1 2\n"),
    ], ids=["reduce", "compare"])
    def test_surplus_stdin_lines_are_rejected(self, capsys, monkeypatch,
                                              command, lines):
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert "gauss codes, got" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: freeknot")

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        freeknot.cli._parser.cache_clear()
        assert run(capsys, "invariant", "--gauss", "1 1")[0] == 0
        assert built
        built.clear()
        assert run(capsys, "invariant", "--gauss", "1 1")[0] == 0
        assert built == []

    def test_closed_pipe_ends_quietly(self):
        # more output than a pipe buffers, so the writer meets the
        # closed pipe whatever the timing
        gauss = " ".join(str(c) for c in list(range(1, 15)) * 2)
        proc = subprocess.Popen(
            [sys.executable, "-m", "freeknot.cli", "moves", "--json",
             "--gauss", gauss],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        with proc.stderr:
            err = proc.stderr.read()
        assert (code, err) == (128 + signal.SIGPIPE, b"")


class TestConsoleScript:
    def test_entry_point_reads_stdin(self):
        exe = shutil.which("freeknot")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "compare"], input="1 2 3 1 2 3\n1 1\n",
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verdict: same_invariant" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "freeknot.cli", "invariant"],
            input="1 1\n", capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gauss: 1 1" in proc.stdout
