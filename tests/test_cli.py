import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
SRC = Path(__file__).resolve().parent.parent / "src"

ORCA = """\
0.8 :: label(i1, whale).
0.7 :: polar(i1).
orca(X) :- label(X, whale), polar(X).
"""

KEY_PERSON = """\
0.8 :: kp(amy, acme).
1 :: company(acme).
kp(Y, X) :- company(X).
"""

NULLS = """\
0.8 :: s(a).
0.2 :: t(a).
p(X, Y) :- s(X).
t(X) :- p(X, Y).
"""

INCONSISTENT = """\
1 :: r(a).
0.5 :: s(a).
s(X) :- r(X).
"""

TWO = """\
0.8 :: p(a).
q(X) :- p(X).
"""

SELF_FEEDING = """\
p(a).
p(Y) :- p(X).
"""

NULLARY = """\
p.
q :- p.
0.5 :: r.
s :- r, q.
"""

RELAXED_CYCLE = """\
0.5 :: e(a, b).
e(Y, Z) :- e(X, Y).
q(X) :- e(X, Y).
"""

# the witness under the user's predicate names, in either mode
RELAXED_CYCLE_WITNESS = "e[1] => e*[2], e*[2] -> e[2], e[2] -> e*[1], e*[1] -> e[1]"

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "mvdatalog", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, text in {
        "orca": ORCA,
        "kp": KEY_PERSON,
        "nulls": NULLS,
        "unsat": INCONSISTENT,
        "two": TWO,
        "selfloop": SELF_FEEDING,
        "relaxcycle": RELAXED_CYCLE,
        "nullary": NULLARY,
    }.items():
        path = tmp_path / f"{name}.mvdl"
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    return out


class TestSolve:
    def test_orca_json(self, files):
        proc = run_cli("solve", files["orca"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["status"] == "ok" and payload["kind"] == "minimal"
        assert {"atom": "orca(i1)", "degree": "1/2", "source": "derived"} in payload["model"]

    def test_unsatisfiable_exit_2(self, files):
        proc = run_cli("solve", files["unsat"])
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["status"] == "unsatisfiable"

    def test_relaxed_mode_lifts_the_conflict(self, files):
        proc = run_cli("solve", files["unsat"], "--mode", "relaxed")
        assert proc.returncode == 0
        model = {e["atom"]: e["degree"] for e in json.loads(proc.stdout)["model"]}
        assert model["s(a)"] == "1"
        assert model["r(a)"] == "1"

    def test_relaxed_mode_sources_read_off_the_primed_atom(self, files):
        proc = run_cli("solve", files["unsat"], "--mode", "relaxed", "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout == "r(a) = 1  (given)\ns(a) = 1  (certain)\n"

    def test_relaxed_degree_may_fall_below_the_database_at_k_below_1(self, files):
        # p(a)'s lower bound is 4/5 - (1 - 9/10)
        proc = run_cli("solve", files["two"], "--K", "0.9", "--mode", "relaxed", "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout == "p(a) = 7/10  (derived)\nq(a) = 3/5  (derived)\n"

    def test_relaxed_bound_below_zero_leaves_the_atom_out(self, tmp_path):
        # 1/20 - (1 - 9/10) < 0: p(a) is absent, not printed with degree 0
        path = tmp_path / "faint.mvdl"
        path.write_text("0.05 :: p(a).\n", encoding="utf-8")
        proc = run_cli("solve", str(path), "--K", "0.9", "--mode", "relaxed")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model"] == []

    def test_nullary_atoms_print_bare(self, files):
        proc = run_cli("solve", files["nullary"], "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout == "p = 1  (given)\nq = 1  (certain)\nr = 1/2  (given)\ns = 1/2  (derived)\n"

    def test_preferred_model_for_existentials(self, files):
        proc = run_cli("solve", files["kp"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["kind"] == "preferred"
        model = {e["atom"]: e["degree"] for e in payload["model"]}
        assert model["kp(_:n1, acme)"] == "1/5"

    def test_no_oblivious_base_exit_5(self, files):
        proc = run_cli("solve", files["nulls"])
        assert proc.returncode == 5
        assert json.loads(proc.stdout)["status"] == "no-oblivious-base-model"

    def test_parse_error_exit_3(self, files, tmp_path):
        bad = tmp_path / "bad.mvdl"
        bad.write_text("p(a", encoding="utf-8")
        proc = run_cli("solve", str(bad))
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_zero_denominator_exit_3(self, tmp_path):
        bad = tmp_path / "bad.mvdl"
        bad.write_text("1/00 :: p(a).\n", encoding="utf-8")
        proc = run_cli("solve", str(bad))
        assert proc.returncode == 3
        assert proc.stderr == "error: zero denominator (line 1, column 3 near '00')\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integer strings of any length"
    )
    @pytest.mark.parametrize("degree", ["1/" + "1" * 5000, "0." + "1" * 5000], ids=["fraction", "decimal"])
    def test_degree_with_too_many_digits_exit_3(self, tmp_path, degree):
        bad = tmp_path / "bad.mvdl"
        bad.write_text(f"{degree} :: p(a).\n", encoding="utf-8")
        proc = run_cli("solve", str(bad))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: too many digits in degree (line 1, column ")

    def test_non_weakly_acyclic_requires_limit_exit_4(self, files):
        proc = run_cli("solve", files["selfloop"])
        assert proc.returncode == 4
        assert "weakly acyclic" in proc.stderr

    def test_exceeded_limit_exit_4(self, files):
        proc = run_cli("solve", files["selfloop"], "--max-chase-steps", "5")
        assert proc.returncode == 4

    def test_truncation_message_is_shared(self, files):
        for command in ("solve", "check", "ground"):
            proc = run_cli(command, files["selfloop"], "--max-chase-steps", "5")
            assert proc.returncode == 4, command
            assert proc.stderr == "error: chase stopped after 5 steps\n", command

    def test_custom_k(self, files):
        proc = run_cli("solve", files["orca"], "--K", "4/5")
        model = {e["atom"]: e["degree"] for e in json.loads(proc.stdout)["model"]}
        assert model["orca(i1)"] == "3/10"

    def test_byte_determinism(self, files):
        a = run_cli("solve", files["orca"])
        b = run_cli("solve", files["orca"])
        assert a.stdout == b.stdout

    def test_fast_path_toggle_same_model(self, files):
        a = run_cli("solve", files["orca"])
        b = run_cli("solve", files["orca"], "--no-fast-path")
        assert json.loads(a.stdout)["model"] == json.loads(b.stdout)["model"]

    def test_no_fast_path_prints_the_same(self, tmp_path):
        # a derived fully-true atom is labelled "certain" on both routes
        path = tmp_path / "certain.mvdl"
        path.write_text(
            "1 :: company(acme).\n0.8 :: kp(amy, acme).\norg(X) :- company(X).\n", encoding="utf-8"
        )
        for fmt in ("json", "text"):
            default = run_cli("solve", str(path), "--format", fmt)
            reference = run_cli("solve", str(path), "--format", fmt, "--no-fast-path")
            assert default.returncode == reference.returncode == 0
            assert default.stdout == reference.stdout
        payload = json.loads(run_cli("solve", str(path)).stdout)
        assert {"atom": "org(acme)", "degree": "1", "source": "certain"} in payload["model"]
        assert payload["stats"]["certain"] == 2

    def test_text_format(self, files):
        proc = run_cli("solve", files["orca"], "--format", "text")
        assert proc.returncode == 0
        assert "orca(i1) = 1/2" in proc.stdout

    def test_empty_model_prints_no_text_lines(self, tmp_path):
        empty = tmp_path / "empty.mvdl"
        empty.write_text("", encoding="utf-8")
        proc = run_cli("solve", str(empty), "--format", "text")
        assert proc.returncode == 0 and proc.stdout == "" and proc.stderr == ""
        assert json.loads(run_cli("solve", str(empty)).stdout)["model"] == []

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_refused_chase_names_the_users_predicates(self, files, mode):
        proc = run_cli("solve", files["relaxcycle"], "--mode", mode)
        assert proc.returncode == 4 and proc.stdout == ""
        assert f"cycle {RELAXED_CYCLE_WITNESS};" in proc.stderr

    def test_multiple_files_merge(self, files, tmp_path):
        extra = tmp_path / "extra.mvdl"
        extra.write_text("0.9 :: polar(i2).\n0.8 :: label(i2, whale).", encoding="utf-8")
        proc = run_cli("solve", files["orca"], str(extra))
        model = {e["atom"]: e["degree"] for e in json.loads(proc.stdout)["model"]}
        assert model["orca(i2)"] == "7/10"


class TestQuery:
    def test_entailed_exit_0(self, files):
        proc = run_cli("query", files["orca"], "orca(i1)", "--at-least", "0.5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["entailed"] is True and payload["degree"] == "1/2"

    def test_not_entailed_exit_1(self, files):
        proc = run_cli("query", files["orca"], "orca(i1)", "--at-least", "0.6")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["entailed"] is False

    def test_absent_atom_zero_threshold(self, files):
        proc = run_cli("query", files["orca"], "whale(i9)", "--at-least", "0")
        assert proc.returncode == 0

    def test_non_ground_query_exit_3(self, files):
        proc = run_cli("query", files["orca"], "orca(X)", "--at-least", "0.5")
        assert proc.returncode == 3

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("query", ["polar(i1, i1)", "orca(i1, i2)", "label(i1)"])
    def test_arity_mismatch_exit_3(self, files, query, mode):
        proc = run_cli("query", files["orca"], query, "--mode", mode)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"predicate '{query.split('(')[0]}' used with arities" in proc.stderr

    def test_chase_gate_precedes_atom_parsing(self, files):
        proc = run_cli("query", files["selfloop"], "p(X)")
        assert proc.returncode == 4
        assert "weakly acyclic" in proc.stderr

    @pytest.mark.parametrize("name, route", [("orca", ["--no-fast-path"]), ("kp", [])])
    def test_chase_cut_short_precedes_atom_parsing(self, files, name, route):
        # a chase that is built and cut short ends the query before its atom parses, as a refused one does
        for atom in ("p(X)", "p(X"):
            proc = run_cli("query", files[name], atom, "--max-chase-steps", "0", *route)
            assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", "error: chase stopped after 0 steps\n")

    @pytest.mark.parametrize("atom", ["p(X", "p(X)"])
    @pytest.mark.parametrize("options", [[], ["--mode", "relaxed", "--max-chase-steps", "0"]])
    def test_plain_program_parses_atom_before_settling(self, files, monkeypatch, capsys, atom, options):
        # a plain program on the default route settles: a bad atom exits 3 before any settle
        from mvdatalog import cli, engine

        calls = []
        real = engine.settle
        monkeypatch.setattr(engine, "settle", lambda *a: calls.append(a) or real(*a))
        assert cli.main(["query", files["orca"], atom, *options]) == 3
        assert calls == [] and capsys.readouterr().out == ""
        assert cli.main(["query", files["orca"], "orca(i1)", *options]) == 1
        assert len(calls) == 1  # the same engine settles once a query parses

    def test_nullary_atom(self, files):
        proc = run_cli("query", files["nullary"], "s", "--at-least", "0.5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["degree"] == "1/2"

    def test_unsat_exit_2(self, files):
        proc = run_cli("query", files["unsat"], "s(a)", "--at-least", "0.5")
        assert proc.returncode == 2

    def test_model_relative_flag(self, files):
        proc = run_cli("query", files["kp"], "kp(amy, acme)", "--at-least", "0.8")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model_relative"] is True


class TestCheck:
    def test_self_feeding_reported(self, files):
        proc = run_cli("check", files["selfloop"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["weakly_acyclic"] is False
        assert "p*" in payload["witness"]
        assert payload["satisfiable"] is None

    def test_key_person_accepted(self, files):
        proc = run_cli("check", files["kp"])
        payload = json.loads(proc.stdout)
        assert payload["weakly_acyclic"] is True
        assert payload["satisfiable"] is True
        assert payload["stats"]["gamma"] == 1

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_witness_names_the_users_predicates(self, files, mode):
        proc = run_cli("check", files["relaxcycle"], "--mode", mode, "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[:2] == [
            "weakly acyclic (variable expansion): no",
            f"witness cycle: {RELAXED_CYCLE_WITNESS}",
        ]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check", "kp"], 0),
            (["check", "kp", "--mode", "relaxed"], 0),
            (["check", "relaxcycle"], 0),
            (["solve", "relaxcycle"], 4),
            (["solve", "relaxcycle", "--mode", "relaxed"], 4),
        ],
    )
    def test_weak_acyclicity_tested_once(self, files, monkeypatch, capsys, argv, code):
        from mvdatalog import cli, termination

        calls = []
        real = termination.is_weakly_acyclic_ve

        def counted(program):
            calls.append(program)
            return real(program)

        monkeypatch.setattr(termination, "is_weakly_acyclic_ve", counted)
        assert cli.main([argv[0], files[argv[1]], *argv[2:]]) == code
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_plain_program_runs_no_test(self, files, monkeypatch, capsys, fmt):
        from mvdatalog import cli, termination

        calls = []
        monkeypatch.setattr(termination, "is_weakly_acyclic_ve", lambda program: calls.append(program))
        assert cli.main(["check", files["orca"], "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert calls == []
        if fmt == "json":
            assert '"weakly_acyclic": true' in out
        else:
            assert out.splitlines()[0] == "weakly acyclic (variable expansion): yes"

    def test_datalog_stats(self, files):
        proc = run_cli("check", files["orca"])
        payload = json.loads(proc.stdout)
        assert payload["weakly_acyclic"] is True
        assert payload["stats"] == {"olim": 3, "gamma": 1}

    def test_unsat_reported_but_exit_0(self, files):
        proc = run_cli("check", files["unsat"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["satisfiable"] is False

    @staticmethod
    def _lp_builds(monkeypatch, argv):
        from mvdatalog import cli, engine

        calls = []
        real = engine.column_program

        def counted(*args):
            calls.append(args)
            return real(*args)

        # eoptk_columns and the core LP both build through column_program
        monkeypatch.setattr(engine, "column_program", counted)
        assert cli.main(argv) == 0
        return len(calls)

    @pytest.mark.parametrize("name, builds", [("kp", 0), ("orca", 0)])
    def test_existential_lp_built_at_most_once(self, files, monkeypatch, capsys, name, builds):
        # every ground rule of kp is Horn once its pinned head is an offset: no LP
        assert self._lp_builds(monkeypatch, ["check", files[name]]) == builds
        assert json.loads(capsys.readouterr().out)["satisfiable"] is True

    def test_core_lp_built_once(self, files, monkeypatch, capsys):
        # relaxed, kp's known key person is no longer pinned: its rule has two free heads
        assert self._lp_builds(monkeypatch, ["check", files["kp"], "--mode", "relaxed"]) == 1
        assert json.loads(capsys.readouterr().out)["satisfiable"] is True

    @pytest.mark.parametrize("name", ["orca", "kp", "nulls", "unsat"])
    def test_lp_size_is_that_of_the_ground_lp(self, files, name):
        stats = json.loads(run_cli("check", files[name]).stdout)["stats"]
        lp = json.loads(run_cli("ground", files[name]).stdout)["lp"]
        assert stats["olim"] == len(lp["variables"])
        assert stats["gamma"] == len(lp["constraints"])

    def test_truncated_chase_prints_payload_then_exit_4(self, files):
        proc = run_cli("check", files["selfloop"], "--max-chase-steps", "5")
        assert proc.returncode == 4
        payload = json.loads(proc.stdout)
        assert payload["weakly_acyclic"] is False
        assert payload["stats"] is None and payload["satisfiable"] is None
        assert proc.stderr == "error: chase stopped after 5 steps\n"

    def test_truncated_chase_prints_text_then_exit_4(self, files):
        proc = run_cli("check", files["selfloop"], "--max-chase-steps", "5", "--format", "text")
        assert proc.returncode == 4
        assert proc.stdout.splitlines() == [
            "weakly acyclic (variable expansion): no",
            "witness cycle: p[1] => p*[1], p*[1] -> p[1]",
        ]
        assert proc.stderr == "error: chase stopped after 5 steps\n"

    @pytest.mark.parametrize(
        "fmt, stdout",
        [
            ("json", '{\n  "satisfiable": null,\n  "stats": null,\n  "weakly_acyclic": true,\n  "witness": null\n}\n'),
            ("text", "weakly acyclic (variable expansion): yes\n"),
        ],
    )
    def test_plain_program_cut_short_keeps_the_report(self, files, fmt, stdout):
        # a plain program settles without a chase, but check reads the chase
        # before the degrees, so a step limit that cuts it short still shows
        proc = run_cli("check", files["orca"], "--max-chase-steps", "0", "--format", fmt)
        assert (proc.returncode, proc.stdout, proc.stderr) == (4, stdout, "error: chase stopped after 0 steps\n")


class TestGround:
    def test_nulls_example_dump(self, files):
        proc = run_cli("ground", files["nulls"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert len(payload["gamma"]) == 2
        assert len(payload["nulls"]) == 1
        assert payload["nulls"][0]["nulls"] == ["_:n1"]
        assert payload["olim"] == ["p(a, _:n1)", "s(a)", "t(a)"]

    def test_existential_constraint_lists_both_matches(self, files):
        proc = run_cli("ground", files["kp"])
        payload = json.loads(proc.stdout)
        (constraint,) = payload["lp"]["constraints"]
        assert set(constraint["coeffs"]) == {"company(acme)", "kp(amy, acme)", "kp(_:n1, acme)"}
        assert payload["lp"]["secondary"] == {"kp(_:n1, acme)": "1"}

    def test_empty_program(self, files, tmp_path):
        empty = tmp_path / "empty.mvdl"
        empty.write_text("p(a).", encoding="utf-8")
        proc = run_cli("ground", str(empty))
        payload = json.loads(proc.stdout)
        assert payload["gamma"] == []

    def test_cancelled_row_prints_zero(self, tmp_path):
        # p(a) -> p(a): its coefficients cancel, leaving an empty sum
        looped = tmp_path / "looped.mvdl"
        looped.write_text("0.5 :: p(a).\np(X) :- p(X).\n", encoding="utf-8")
        text = run_cli("ground", str(looped), "--format", "text")
        assert text.returncode == 0 and "\n  0 >= 0\n" in text.stdout
        assert "   >=" not in text.stdout
        (constraint,) = json.loads(run_cli("ground", str(looped)).stdout)["lp"]["constraints"]
        assert constraint == {"coeffs": {}, "rhs": "0"}

    def test_empty_objective_prints_zero(self, tmp_path):
        # rules and no facts: the LP has no column, so the objective is an empty sum
        rules = tmp_path / "rules.mvdl"
        rules.write_text("p(X) :- q(X).\n", encoding="utf-8")
        text = run_cli("ground", str(rules), "--format", "text")
        assert text.returncode == 0 and text.stderr == ""
        assert text.stdout == "minimize\n  0\nsubject to\n  0 <= x <= 1 for all variables\n"

    def test_non_weakly_acyclic_requires_limit_exit_4(self, files):
        proc = run_cli("ground", files["selfloop"])
        assert proc.returncode == 4 and proc.stdout == ""
        assert "weakly acyclic" in proc.stderr

    @pytest.mark.parametrize(
        "name, options, golden",
        [
            ("kp", [], "kp.ground.json"),
            ("kp", ["--format", "text"], "kp.ground.txt"),
            ("nulls", [], "nulls.ground.json"),
            ("nulls", ["--format", "text"], "nulls.ground.txt"),
            ("nulls", ["--K", "1/2"], "nulls-K1_2.ground.json"),
            ("nulls", ["--K", "1/2", "--format", "text"], "nulls-K1_2.ground.txt"),
            ("kp", ["--mode", "relaxed"], "kp-relaxed.ground.json"),
            ("kp", ["--mode", "relaxed", "--format", "text"], "kp-relaxed.ground.txt"),
        ],
    )
    def test_dump_is_byte_for_byte(self, files, name, options, golden):
        # variables, bounds, fixings, objective, secondary, coefficients and right-hand sides
        proc = run_cli("ground", files[name], *options)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
    @pytest.mark.parametrize(
        "stem, argv, golden, code",
        [
            # 14 companies: null ids run past 9, so rank order and string order differ
            ("keyperson14", ["solve"], "keyperson14.solve", 0),
            ("keyperson14", ["solve", "--mode", "relaxed", "--K", "9/10"], "keyperson14-relaxed.solve", 0),
            ("keyperson14", ["query", "person(p5x1)", "--at-least", "1/2"], "keyperson14.query", 0),
            ("keyperson14", ["ground"], "keyperson14.ground", 0),
            ("chain30", ["solve", "--K", "999/1000"], "chain30.solve", 0),
            ("chain30", ["query", "reach(c29)", "--K", "999/1000", "--at-least", "99/100"], "chain30.query", 1),
            ("chain30", ["ground", "--K", "999/1000"], "chain30.ground", 0),
            # given, certain and derived entries at K = 1, nullary atoms among them
            ("mixed", ["solve"], "mixed.solve", 0),
            ("mixed", ["query", "q(zed)"], "mixed.query", 1),  # a constant the chase never saw
            # relaxed at K = 3/4: facts fall below tau, one is raised back to it
            ("relaxed", ["solve", "--mode", "relaxed", "--K", "3/4"], "relaxed.solve", 0),
            ("unsat", ["solve"], "unsat.solve", 2),
            ("unsat", ["check"], "unsat.check", 0),
            # numeric and program-only constants, then nulls, in rank order
            ("ranks", ["solve"], "ranks.solve", 0),
        ],
    )
    def test_golden_output_is_byte_for_byte(self, stem, argv, golden, code, fmt, ext):
        command, *rest = argv
        proc = run_cli(command, str(GOLDEN / f"{stem}.mvdl"), *rest, "--format", fmt)
        assert proc.returncode == code and proc.stderr == ""
        assert proc.stdout == (GOLDEN / f"{golden}.{ext}").read_text(encoding="utf-8")

    def test_text_builds_no_json_payload(self, files, monkeypatch, capsys):
        # --format text prints the LP only: no Gamma as `GroundRule`s, no null registry
        from mvdatalog import cli
        from mvdatalog.chase import ChaseResult
        from mvdatalog.core import GroundRule

        built, read, dumped = [], [], []
        generated, as_json = GroundRule.__init__, cli._lp_as_json
        monkeypatch.setattr(GroundRule, "__init__", lambda g, *a: built.append(a) or generated(g, *a))
        monkeypatch.setattr(ChaseResult, "registry", property(lambda c: read.append(c) or []))
        monkeypatch.setattr(cli, "_lp_as_json", lambda *a: dumped.append(a) or as_json(*a))
        for name in ("kp", "nulls"):
            assert cli.main(["ground", files[name], "--format", "text"]) == 0
        assert "subject to" in capsys.readouterr().out
        assert built == read == dumped == []
        assert cli.main(["ground", files["nulls"]]) == 0  # the JSON dump builds all three
        assert (len(built), len(read), len(dumped)) == (2, 1, 1)
        capsys.readouterr()

    def test_json_builds_no_text(self, files, monkeypatch, capsys):
        from mvdatalog import cli

        monkeypatch.setattr(cli, "_lp_as_text", lambda *a: pytest.fail("_lp_as_text built in JSON mode"))
        for options in ([], ["--mode", "relaxed"], ["--K", "1/2"]):
            assert cli.main(["ground", files["nulls"], *options]) == 0
            assert json.loads(capsys.readouterr().out)["lp"]["variables"]

    def test_nulls_in_id_order(self, tmp_path):
        # 12 companies: 12 nulls, listed _:n1 ... _:n12 (not _:n1, _:n10, _:n11, _:n12, _:n2, ...),
        # in the order their first atoms appear in olim
        path = tmp_path / "kp12.mvdl"
        path.write_text("".join(f"company(c{i}).\n" for i in range(12)) + KEY_PERSON.split("\n", 2)[2],
                        encoding="utf-8")
        proc = run_cli("ground", str(path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        nulls = [n for entry in payload["nulls"] for n in entry["nulls"]]
        assert nulls == [f"_:n{i}" for i in range(1, 13)]
        in_olim = [t.strip() for a in payload["olim"] for t in a[a.index("(") + 1:-1].split(",")]
        assert nulls == list(dict.fromkeys(t for t in in_olim if t.startswith("_:")))

    def test_lp_text_dump(self, files):
        proc = run_cli("ground", files["orca"], "--format", "text")
        assert proc.returncode == 0
        assert "minimize" in proc.stdout and "subject to" in proc.stdout


class TestUsageErrors:
    """Command-line usage errors are input errors (exit 3); 2 means unsatisfiable."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve",),
            ("solve", "{orca}", "--format", "xml"),
            ("solve", "{orca}", "--max-chase-steps", "x"),
            ("solve", "{orca}", "--max-chase-steps", "-1"),
            ("check", "{orca}", "--max-chase-steps", "2.5"),
            ("frobnicate", "{orca}"),
            (),
            ("solve", "{orca}", "--max-chase-steps", "٣"),
        ],
        ids=[
            "no-files", "format-xml", "steps-word", "steps-negative", "steps-fraction", "unknown-command", "no-command",
            "steps-arabic-indic-digit",
        ],
    )
    def test_usage_error_exit_3(self, files, argv):
        proc = run_cli(*(a.format(**files) for a in argv))
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: mvdl") and proc.stderr.splitlines()[-1].startswith("error: ")

    def test_help_exits_0(self):
        proc = run_cli("solve", "--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: mvdl solve")

    def test_zero_steps_still_allowed(self, files):
        proc = run_cli("ground", files["orca"], "--max-chase-steps", "0")  # ground chases a plain program too
        assert proc.returncode == 4
        assert proc.stderr == "error: chase stopped after 0 steps\n"


class TestClosedStdout:
    """A reader that stops early ends the CLI quietly with exit 141, which
    no other outcome uses, not with a traceback and 1 (not entailed)."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reader_closes_after_one_line(self, tmp_path, fmt):
        path = tmp_path / "wide.mvdl"
        # 12,000 model atoms: some 300 KB of text, 1 MB of JSON, more than a pipe holds
        path.write_text("".join(f"0.5 :: p(c{i}).\n" for i in range(6000)) + "q(X) :- p(X).\n", encoding="utf-8")
        argv = [sys.executable, "-m", "mvdatalog", "solve", str(path), "--format", fmt]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert stderr == b""
        assert code == 141


class TestDegreeOptions:
    """`--K` and `--at-least` take a degree as the file grammar writes one."""

    @pytest.mark.parametrize("value", ["1e-5000", "5e-1", "+1/2", "1/0", "0.5.", ""])
    def test_malformed_degree_exit_3(self, files, value):
        for argv in (
            ("solve", files["orca"], "--K", value),
            ("query", files["orca"], "orca(i1)", "--at-least", value),
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 3, (argv, proc.stderr)
            assert proc.stdout == "" and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("value, threshold, code", [("1/2", "1/2", 0), ("0.50", "1/2", 0), ("1", "1", 1)])
    def test_threshold_syntax(self, files, value, threshold, code):
        proc = run_cli("query", files["orca"], "orca(i1)", "--at-least", value)
        assert proc.returncode == code
        assert json.loads(proc.stdout)["threshold"] == threshold

    @pytest.mark.parametrize("argv", [("solve", "--K"), ("query", "orca(i1)", "--at-least")], ids=["K", "at-least"])
    def test_non_ascii_digits_exit_3(self, files, argv):
        # Arabic-Indic 0.5: NUMBER is ASCII digits only
        proc = run_cli(argv[0], files["orca"], *argv[1:], "\u0660.\u0665")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: unexpected character (line 1, column 1 near '\u0660')\n"

    def test_decimal_k(self, files):
        proc = run_cli("solve", files["orca"], "--K", "0.8")
        model = {e["atom"]: e["degree"] for e in json.loads(proc.stdout)["model"]}
        assert model["orca(i1)"] == "3/10"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--K", "0"), "degree must be strictly positive"),
            (("query", "orca(i1)", "--at-least", "3/2"), "degree 3/2 outside [0, 1]"),
        ],
        ids=["zero-K", "threshold-above-1"],
    )
    def test_out_of_range_exit_3(self, files, argv, message):
        proc = run_cli(argv[0], files["orca"], *argv[1:])
        assert proc.returncode == 3
        assert proc.stderr == f"error: {message}\n"


class TestFileEncoding:
    """Input files are UTF-8, a leading byte-order mark allowed; any other
    bytes are an input error (exit 3), not a crash."""

    @pytest.mark.parametrize("argv", [("solve",), ("query", "p(a)")], ids=["solve", "query"])
    def test_non_utf8_exit_3(self, tmp_path, argv):
        path = tmp_path / "bad.mvdl"
        path.write_bytes(b"p(a).\n\xff\n")
        proc = run_cli(argv[0], str(path), *argv[1:])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: cannot read {path}: not UTF-8 (byte 6)\n"

    def test_byte_order_mark_is_dropped(self, files, tmp_path):
        path = tmp_path / "bom.mvdl"
        path.write_bytes(KEY_PERSON.encode("utf-8-sig"))
        assert run_cli("solve", str(path)).stdout == run_cli("solve", files["kp"]).stdout != ""

    @pytest.mark.parametrize(
        "path, error",
        [("./missing.mvdl", "No such file or directory"), ("inputs/", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_path_named_as_typed(self, tmp_path, path, error):
        (tmp_path / "inputs").mkdir()
        proc = run_cli("solve", path, cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read {path}: ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(f"{error}: '{path}'\n")


class TestLongRuleBody:
    """A rule body of any length joins without running out of recursion depth."""

    @pytest.mark.parametrize(
        "command", [("solve",), ("check",), ("solve", "--no-fast-path")], ids=["solve", "check", "no-fast-path"]
    )
    def test_1500_body_atoms(self, tmp_path, command):
        n = 1500
        path = tmp_path / "long.mvdl"
        facts = "".join(f"p{i}(a).\n" for i in range(n))
        path.write_text(facts + "q(X) :- " + ", ".join(f"p{i}(X)" for i in range(n)) + ".\n", encoding="utf-8")
        proc = run_cli(*command, str(path))
        assert proc.returncode == 0, proc.stderr[-300:]
        payload = json.loads(proc.stdout)
        if command[0] == "check":
            assert payload["satisfiable"] is True
            assert payload["stats"]["olim"] == n + 1 and payload["stats"]["gamma"] == 1
        else:
            model = {e["atom"]: e["degree"] for e in payload["model"]}
            assert model["q(a)"] == "1" and len(model) == n + 1


class TestJsonWriter:
    """The CLI's JSON is what `json.dumps(indent=2, sort_keys=True)` writes:
    `solve`'s and `query`'s templates, and json.dumps's own for the rest."""

    @pytest.mark.parametrize("name", ["orca", "kp", "nulls", "unsat"])
    def test_cli_output_is_json_dumps(self, files, name):
        # unsat's solve and query exit 2, and nulls' exit 5: their payloads too
        codes = set()
        atom = {"orca": "orca(i1)", "kp": "kp(amy, acme)", "nulls": "t(a)", "unsat": "s(a)"}[name]
        for argv in (
            ["solve"],
            ["solve", "--mode", "relaxed"],
            ["query", atom],  # not entailed, or no model
            ["query", atom, "--at-least", "0"],  # entailed, or no model
            ["query", atom, "--mode", "relaxed", "--at-least", "1/2"],
            ["query", f"\t{atom} \u3000"],  # whitespace the atom parses with is echoed, escaped
            ["check"],
            ["check", "--mode", "relaxed"],
            ["ground"],
            ["ground", "--mode", "relaxed"],
        ):
            command, *rest = argv
            proc = run_cli(command, files[name], *rest)
            codes.add(proc.returncode)
            assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n", argv
        assert codes >= {"orca": {0, 1}, "kp": {0, 1}, "nulls": {5}, "unsat": {2}}[name]

    def test_empty_model(self, tmp_path):
        path = tmp_path / "rules.mvdl"
        path.write_text("q(X) :- p(X).\n", encoding="utf-8")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 0 and json.loads(proc.stdout)["model"] == []
        assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"


class TestAnswerOnIds:
    """`solve`, `query` and `check` answer from `Engine.degrees` by atom id,
    on the reference LP route too: none builds the `core` atoms of the
    engine's atom table (`Engine.table.atoms`), the `Engine.model` view on
    them or the database's `entries` view."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "orca"], 0),
            (["solve", "kp", "--format", "text"], 0),
            (["solve", "kp", "--mode", "relaxed"], 0),  # the core LP
            (["solve", "nullary", "--K", "1/2"], 0),
            (["solve", "unsat"], 2),
            (["query", "kp", "kp(amy, acme)"], 1),
            (["query", "kp", "kp(zed, acme)", "--at-least", "0"], 0),
            (["query", "orca", "orca(i1)", "--mode", "relaxed", "--format", "text"], 1),
            (["check", "kp"], 0),
            (["check", "nulls"], 0),
            (["solve", "kp", "--no-fast-path"], 0),
            (["solve", "orca", "--no-fast-path", "--mode", "relaxed", "--format", "text"], 0),
            (["solve", "unsat", "--no-fast-path"], 2),
            (["query", "kp", "kp(amy, acme)", "--no-fast-path"], 1),
            (["check", "kp", "--no-fast-path"], 0),
        ],
    )
    def test_no_atom_views(self, files, monkeypatch, capsys, argv, code):
        from mvdatalog import cli
        from mvdatalog.core import Atom

        hashed = []  # every `core` atom hashed during the call: none
        generated = Atom.__hash__
        monkeypatch.setattr(Atom, "__hash__", lambda a: hashed.append(a) or generated(a))
        engines = []
        real = cli._open

        def recorded(args):
            engines.append(real(args))
            return engines[-1]

        monkeypatch.setattr(cli, "_open", recorded)
        assert cli.main([argv[0], files[argv[1]], *argv[2:]]) == code
        capsys.readouterr()
        (engine,) = engines
        assert ("degrees" in engine.__dict__) == (argv[1] not in ("unsat", "nulls"))  # the route ran, with a model
        assert "model" not in engine.__dict__ and "atoms" not in engine.table.__dict__
        assert "entries" not in engine.instance.database.__dict__
        assert hashed == []


class TestLoadOnUse:
    """`lp` and `termination` load where they run: a plain program's `solve`,
    `query` and `check` load neither, an existential program's chase gate
    loads `termination`, and only an LP built or solved loads `lp`. Each
    case is a fresh interpreter's `sys.modules` after `import mvdatalog.cli`
    and one in-process `cli.main(argv)`."""

    LP, TERMINATION = "mvdatalog.lp", "mvdatalog.termination"

    @staticmethod
    def _loaded(*argv):
        script = (
            "import contextlib, io, json, sys\n"
            "from mvdatalog import cli\n"
            "code = None\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('mvdatalog'))]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        return code, set(modules)

    def test_import_loads_neither(self):
        _, modules = self._loaded()
        assert "mvdatalog.cli" in modules and not modules & {self.LP, self.TERMINATION}

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", str(GOLDEN / "chain30.mvdl"), "--K", "999/1000"], 0),
            (["query", str(GOLDEN / "chain30.mvdl"), "reach(c29)", "--K", "999/1000", "--at-least", "99/100"], 1),
            (["check", "orca"], 0),
        ],
        ids=["solve", "query", "check"],
    )
    def test_plain_program_loads_neither(self, files, argv, code, fmt, mode):
        command, path, *rest = argv
        loaded = self._loaded(command, files.get(path, path), *rest, "--format", fmt, "--mode", mode)
        assert loaded[0] == code and not loaded[1] & {self.LP, self.TERMINATION}

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_existential_program_without_core_loads_termination_only(self, fmt):
        code, modules = self._loaded("solve", str(GOLDEN / "keyperson14.mvdl"), "--format", fmt)
        assert code == 0 and self.TERMINATION in modules and self.LP not in modules

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "chain30.mvdl", "--K", "999/1000", "--no-fast-path"],
            ["ground", "chain30.mvdl", "--K", "999/1000"],
            ["solve", "keyperson14.mvdl", "--mode", "relaxed", "--K", "9/10"],  # a non-empty core
        ],
        ids=["no-fast-path", "ground", "core"],
    )
    def test_lp_loads_where_an_lp_is_built(self, argv):
        command, name, *rest = argv
        code, modules = self._loaded(command, str(GOLDEN / name), *rest)
        assert code == 0 and self.LP in modules

    def test_termination_names_still_exported(self):
        import mvdatalog
        from mvdatalog import is_weakly_acyclic_ve, termination, variable_expansion

        assert (is_weakly_acyclic_ve, variable_expansion) == (
            termination.is_weakly_acyclic_ve,
            termination.variable_expansion,
        )
        assert mvdatalog.__all__ == [
            "Atom", "ChaseResult", "Constant", "DomainError", "Engine", "FuzzyDatabase", "GroundModel",
            "GroundRule", "Instance", "LabelledNull", "NoObliviousBaseModel", "ParseError", "Program",
            "QueryResult", "Rule", "TruncatedChase", "TruthAssignment", "UnboundedChase", "Unsatisfiable",
            "Variable", "as_degree", "atom", "body_truth", "fixpoint_minimal_model", "is_weakly_acyclic_ve",
            "k_truth", "make_rule", "minimal_model", "oblivious_chase", "parse", "parse_ground_atom",
            "parse_many", "preferred_model", "rule_gap", "variable_expansion", "verify_model",
        ]
        namespace: dict = {}
        exec("from mvdatalog import *", namespace)
        assert {name: namespace[name] for name in mvdatalog.__all__} == {
            name: getattr(mvdatalog, name) for name in mvdatalog.__all__
        }
