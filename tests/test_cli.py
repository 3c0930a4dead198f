"""Command-line surface and self-contained derivation documents."""

from __future__ import annotations

import copy
import random
import re

import pytest

from pathrw.cli import main
from pathrw.engine import Derivation, NotEqual, decide_rw_equal, invert_derivation, normalize
from pathrw.errors import ContextError, NotAnAxiomInstance, PathRwError, TypeMismatch
from pathrw.groupoid import run_laws
from pathrw.oracle import oracle_equal
from pathrw.rules import GROUPOID_COMPLETE, PAPER7
from pathrw.script import parse_path_expr, parse_script
from pathrw.serialize import (
    context_from_doc,
    context_to_doc,
    derivation_from_doc,
    derivation_to_doc,
    doc_from_json,
    doc_to_json,
    replay_document,
)
from pathrw.terms import Atom, Object, Refl, StepAtom, Sym, Trans, endpoints, level

from conftest import FORMER_ERRORS, LAMBDA_SCRIPT, TRIANGLE_SCRIPT, readme_blocks

EXAMPLE = """\
type A
elem a b c : A
step r : a = b
step s : a = c
path p := tau(r, tau(sigma(r), s))
path q := s
path w := sigma(rho(a))
path u := sigma(tau(sigma(s), r))
path v := tau(sigma(r), s)
path nf := r
"""


@pytest.fixture
def script_file(tmp_path):
    path = tmp_path / "ex.pth"
    path.write_text(EXAMPLE, encoding="utf-8")
    return str(path)


def test_normalize_prints_trace_and_normal_form(script_file, capsys):
    assert main(["normalize", script_file, "w"]) == 0
    out = capsys.readouterr().out
    assert "sr" in out
    assert "normal: rho(a)" in out


def test_normalize_level_assertion(script_file, capsys):
    assert main(["normalize", script_file, "w", "--level", "2"]) == 2
    assert capsys.readouterr() == ("", "error: path 'w' is at level 1, not 2\n")


def test_normalize_unknown_path(script_file, capsys):
    assert main(["normalize", script_file, "zz"]) == 2
    assert capsys.readouterr().err == "error: script defines no path named 'zz'\n"


def test_missing_file_is_input_error(capsys):
    assert main(["normalize", "/nonexistent/x.pth", "p"]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pth"
    bad.write_text("path p := tau(", encoding="utf-8")
    assert main(["normalize", str(bad), "p"]) == 2
    assert capsys.readouterr().err.startswith("error: 1:")
    stray = "type A\nelem a b : A\nstep r : a = b\npath p := tau(r, @r)\n"
    located = "type A\nelem a b c : A\nstep r : a = b\nstep s : b = c\npath p := "
    for text, expected in (
        (stray, "error: 4:18: unexpected character '@'\n"),
        (located + "τ(r σ(s))\n", "error: 5:15: expected ',', got 'sigma'\n"),
        (located + "τ(r, @σ(s))\n", "error: 5:16: unexpected character '@'\n"),
    ):
        bad.write_text(text, encoding="utf-8")
        assert main(["normalize", str(bad), "p"]) == 2
        assert capsys.readouterr() == ("", expected)


def test_a_former_error_names_no_position_inside_the_former(tmp_path, capsys):
    """A xi over what has no lambda value is located by its line and column alone."""
    bad = tmp_path / "bad.pth"
    for text, message in FORMER_ERRORS.items():
        bad.write_text(text, encoding="utf-8")
        assert main(["normalize", str(bad), "q"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_repeated_declarations_are_located_input_errors(tmp_path, capsys):
    """A type name twice on one line, and a second lambda value after a step was checked against the first."""
    bad = tmp_path / "bad.pth"
    bad.write_text("type A A\nelem a : A\n", encoding="utf-8")
    assert main(["laws", str(bad), "--samples", "2"]) == 2
    assert capsys.readouterr() == ("", "error: 1:8: name 'A' is already declared\n")
    bad.write_text(
        "type F\nelem m n : F\nlam m := (\\x. x) y\nlam n := y\nstep b : m = n beta\n"
        "lam n := z\npath p := tau(b, sigma(b))\n",
        encoding="utf-8",
    )
    assert main(["normalize", str(bad), "p", "--json"]) == 2
    assert capsys.readouterr() == ("", "error: 6:5: element 'n' already has a lambda value\n")


def test_equal_exit_codes(script_file, capsys):
    assert main(["equal", script_file, "p", "q"]) == 0
    out = capsys.readouterr().out
    assert "equal" in out and "tt" in out
    assert main(["equal", script_file, "p", "w"]) == 1
    assert "not equal" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["equal", script_file, "p", "q", "--bound", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 5" in capsys.readouterr().err


def test_equal_emits_replayable_document(script_file, capsys):
    assert main(["equal", script_file, "p", "q", "--json"]) == 0
    doc = doc_from_json(capsys.readouterr().out)
    assert doc["format"] == "pathrw-derivation"
    assert doc["start"] == "tau(r, tau(sigma(r), s))"
    assert doc["end"] == "s"
    assert replay_document(doc)
    # Derived-rule witnesses expanded into the seven rules: trc for p and q, st for u and v.
    expected = {("p", "q"): "tt tr tlr", ("u", "v"): "tlr tsr tt tlr tsr tt tt tr trr ss"}
    for (p, q), rules in expected.items():
        assert main(["equal", script_file, p, q, "--rules", "paper7", "--json"]) == 0
        doc = doc_from_json(capsys.readouterr().out)
        assert " ".join(step["rule"] for step in doc["steps"]) == rules
        assert {step["rule"] for step in doc["steps"]} <= {schema.name for schema in PAPER7.schemas}
        assert replay_document(doc)


def test_normalize_document_round_trips(script_file, capsys):
    assert main(["normalize", script_file, "p", "--rules", "groupoid-complete", "--json"]) == 0
    doc = doc_from_json(capsys.readouterr().out)
    assert doc["rules"] == "groupoid-complete"
    assert replay_document(doc)
    rebuilt, ctx, rules_name = derivation_from_doc(doc)
    assert rules_name == "groupoid-complete"
    assert rebuilt.level == 1


def test_document_survives_json_round_trip():
    script = parse_script(EXAMPLE)
    _, d = normalize(script.paths["p"], PAPER7, script.context)
    doc = derivation_to_doc(d, script.context, "paper7")
    again = doc_from_json(doc_to_json(doc))
    assert again == doc
    assert replay_document(again)


def test_recorded_step_atoms_have_no_document():
    """A level-2 law witness holds recorded-step atoms, which a script cannot write."""
    script = parse_script(EXAMPLE)
    report = run_laws(script.context, 2, 1, 0)
    assert report.reports and not report.failures
    for law in report.reports:
        with pytest.raises(PathRwError, match="^recorded-step atoms have no script syntax; cannot serialize$"):
            derivation_to_doc(law.witness, script.context, "paper7")


def test_a_recorded_step_inside_an_object_has_no_document():
    """The scan for recorded steps enters Refl objects, on an explicit stack."""
    ctx = parse_script(EXAMPLE).context
    _, d = normalize(parse_path_expr("tau(r, rho(b))", ctx), PAPER7, ctx)
    step = StepAtom(d.steps[0])
    deep = step
    for _ in range(5000):
        deep = Sym(deep)
    lifted = Refl(Object(2, step))
    for t in (lifted, Refl(Object(3, lifted)), Trans(lifted, Sym(lifted)), Refl(Object(2, deep))):
        endpoints(t, ctx)
        with pytest.raises(PathRwError, match="^recorded-step atoms have no script syntax; cannot serialize$"):
            derivation_to_doc(Derivation(t, (), level(t)), ctx, "paper7")


def test_document_tampering_detected(script_file, capsys):
    main(["equal", script_file, "p", "q", "--json"])
    doc = doc_from_json(capsys.readouterr().out)
    doc["steps"][0]["position"] = [0, 0]
    assert not replay_document(doc)
    # A hand-edited witness: its last step, ss at [1], given another child off its position.
    main(["equal", script_file, "u", "v", "--json"])
    doc = doc_from_json(capsys.readouterr().out)
    last = doc["steps"][-1]
    assert (last["rule"], last["position"]) == ("ss", [1]) and replay_document(doc)
    last["after"] = doc["end"] = "tau(sigma(sigma(sigma(r))), s)"
    assert not replay_document(doc)


def test_document_missing_keys_are_input_errors(script_file, capsys):
    with pytest.raises(PathRwError, match="document has no 'context'"):
        replay_document({"format": "pathrw-derivation"})
    main(["equal", script_file, "p", "q", "--json"])
    doc = doc_from_json(capsys.readouterr().out)
    wrong_types = [
        (lambda d: d.update(start=5), "document 'start' must be a string, not int"),
        (lambda d: d.update(context=[]), "document 'context' must be an object, not list"),
        (lambda d: d["steps"][0].update(position=5), "step 0 'position' must be a list, not int"),
        (lambda d: d["steps"][0].update(position=[-1]), "step 0 'position' must be a list of child indices"),
        (lambda d: d["steps"][0].update(rule=5), "step 0 'rule' must be a string, not int"),
        (lambda d: d["steps"].__setitem__(0, 5), "step 0 must be an object, not int"),
        (lambda d: d.update(level="1"), "document 'level' must be an integer, not str"),
        (lambda d: d["context"].update(types=[["A"]]), "context 'types' must be a list of strings"),
        (lambda d: d["context"]["elements"].update(a=["A"]), "elements 'a' must be a string, not list"),
        (lambda d: d["context"]["atoms"]["r"].update(tag=["x"]), "atom 'r' 'tag' must be a string, not list"),
    ]
    for mutate, message in wrong_types:
        bad = copy.deepcopy(doc)
        mutate(bad)
        with pytest.raises(PathRwError, match=re.escape(message)):
            replay_document(bad)
    del doc["steps"][1]["after"]
    with pytest.raises(PathRwError, match="step 1 has no 'after'"):
        replay_document(doc)


def test_document_with_an_unknown_direction_is_an_input_error():
    script = parse_script(EXAMPLE)
    _, d = normalize(parse_path_expr("tau(r, rho(b))", script.context), PAPER7, script.context)
    doc = derivation_to_doc(invert_derivation(d), script.context, "paper7")
    assert doc["steps"][0]["direction"] == "reverse" and replay_document(doc)
    doc["steps"][0]["direction"] = "sideways"
    message = "step 0 'direction' must be 'forward' or 'reverse', not 'sideways'"
    with pytest.raises(PathRwError, match=re.escape(message)):
        replay_document(doc)


def test_document_with_lambda_context_replays(tmp_path, capsys):
    script = tmp_path / "lam.pth"
    script.write_text(
        "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\n"
        "step al : m = n alpha\npath p := xi(v, tau(al, sigma(al)))\n",
        encoding="utf-8",
    )
    assert main(["normalize", str(script), "p", "--json"]) == 0
    doc = doc_from_json(capsys.readouterr().out)
    assert doc["context"]["lambdas"] == {"m": "\\x. x", "n": "\\y. y"}
    assert doc["end"] == "xi(v, rho(m))"
    assert replay_document(doc)


def test_document_tagged_atoms_are_checked_as_in_scripts():
    """A tagged atom whose lambda ends do not fit its tag is refused by documents, as by scripts."""
    decls = "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y z\nstep al : m = n alpha\n"
    with pytest.raises(TypeMismatch, match="^5:6: alpha: endpoints are not alpha-equal$"):
        parse_script(decls)
    ctx = parse_script(decls.replace("y z", "y")).context
    _, d = normalize(parse_path_expr("tau(al, sigma(al))", ctx), PAPER7, ctx)
    doc = derivation_to_doc(d, ctx, "paper7")
    assert replay_document(doc)
    for mutate, message in (
        (lambda c: c["lambdas"].update(n="\\y. y z"), "alpha: endpoints are not alpha-equal"),
        (lambda c: c["atoms"]["al"].update(tag="beta"), "beta: left endpoint is not an applied abstraction"),
        (lambda c: c["lambdas"].pop("n"), "alpha-tagged atom endpoints 'm', 'n' need lambda definitions"),
    ):
        bad = copy.deepcopy(doc)
        mutate(bad["context"])
        with pytest.raises(NotAnAxiomInstance, match=f"^{re.escape(message)}$"):
            context_from_doc(bad["context"])
        with pytest.raises(NotAnAxiomInstance, match=f"^{re.escape(message)}$"):
            replay_document(bad)


def test_document_with_a_repeated_type_name_is_refused():
    doc = derivation_to_doc(Derivation(Atom("r"), (), 1), parse_script(EXAMPLE).context, "paper7")
    assert replay_document(doc)
    doc["context"]["types"] = ["A", "A"]
    message = "type, element, and atom names must be pairwise distinct"
    with pytest.raises(ContextError, match=f"^{message}$"):
        context_from_doc(doc["context"])
    with pytest.raises(ContextError, match=f"^{message}$"):
        replay_document(doc)


def test_context_documents_round_trip_every_parsed_script():
    """Each script form tier-1 parses: the README's, this file's, and lambda values under each tag.

    A script is judged line by line as it is parsed; the context's own rule finds nothing more.
    """
    scripts = [
        *readme_blocks("pth"),
        EXAMPLE,
        LAMBDA_SCRIPT,
        TRIANGLE_SCRIPT,
        FORMERS_SCRIPT,
        "type F\nelem f g : F\nlam f := (\\x. x) y\nlam g := y\nstep b : f = g beta\n",
        "type F\nelem f g : F\nlam f := \\x. h x\nlam g := h\nstep e : f = g eta\n",
        "type A B\nelem a : A\nelem b : B\nelem c : A\nstep r : a = c\n",
    ]
    for text in scripts:
        ctx = parse_script(text).context
        ctx.check()
        assert context_from_doc(context_to_doc(ctx)) == ctx, text


def test_laws_command(script_file, capsys):
    assert main(["laws", script_file, "--level", "1", "--samples", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "assoc" in out and "0 failures" in out


def test_laws_seed_env_override(script_file, capsys, monkeypatch):
    monkeypatch.setenv("PATHRW_SEED", "99")
    assert main(["laws", script_file, "--samples", "5", "--seed", "3"]) == 0
    assert "seed 99" in capsys.readouterr().out
    monkeypatch.setenv("PATHRW_SEED", "x9")
    assert main(["laws", script_file, "--samples", "5"]) == 2
    assert capsys.readouterr() == ("", "error: PATHRW_SEED must be an integer, got 'x9'\n")


def test_consecutive_calls_leak_no_options(script_file, capsys, monkeypatch):
    """One parser serves every call in a process; no call's options reach the next."""
    from pathrw import cli

    assert cli._parser() is cli._parser()
    monkeypatch.delenv("PATHRW_SEED", raising=False)
    assert main(["normalize", script_file, "w", "--json"]) == 0
    assert doc_from_json(capsys.readouterr().out)["start"] == "sigma(rho(a))"
    assert main(["normalize", script_file, "w"]) == 0
    assert capsys.readouterr().out.startswith("start:  sigma(rho(a))\n")
    assert main(["laws", script_file, "--level", "2", "--samples", "5", "--seed", "3"]) == 0
    assert "laws: level 2, seed 3," in capsys.readouterr().out
    assert main(["laws", script_file, "--samples", "5"]) == 0
    assert "laws: level 1, seed 0," in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["normalize", script_file, "w", "--strategy", "sideways"])
    assert exc.value.code == 2
    assert "invalid choice: 'sideways'" in capsys.readouterr().err
    assert main(["normalize", script_file, "w"]) == 0
    assert capsys.readouterr().out.endswith("normal: rho(a)  [1 steps]\n")


# Each subcommand that takes ``--rules``: its arguments, its help at 80 columns, and the invalid-choice error.
RULES_HELP = {
    "normalize": (
        ["normalize", "f", "p"],
        """\
usage: pathrw normalize [-h] [--rules {paper7,groupoid-complete}]
                        [--level LEVEL]
                        [--strategy {leftmost-innermost,leftmost-outermost}]
                        [--json]
                        file path
""",
        """
positional arguments:
  file
  path

options:
  -h, --help            show this help message and exit
  --rules {paper7,groupoid-complete}
  --level LEVEL         assert the path's level
  --strategy {leftmost-innermost,leftmost-outermost}
  --json                emit a derivation document
""",
    ),
    "equal": (
        ["equal", "f", "p", "q"],
        """\
usage: pathrw equal [-h] [--rules {paper7,groupoid-complete}] [--json]
                    file p q
""",
        """
positional arguments:
  file
  p
  q

options:
  -h, --help            show this help message and exit
  --rules {paper7,groupoid-complete}
  --json                emit a derivation document
""",
    ),
    "confluence": (
        ["confluence", "f"],
        """\
usage: pathrw confluence [-h] [--rules {paper7,groupoid-complete}]
                         [--max-size MAX_SIZE]
                         file
""",
        """
positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --rules {paper7,groupoid-complete}
  --max-size MAX_SIZE
""",
    ),
}


@pytest.mark.parametrize("command", sorted(RULES_HELP))
def test_rule_set_choices_keep_their_help_and_error_text(command, capsys, monkeypatch):
    """The ``--rules`` choices come from ``rules.RULE_SETS``; help and error text are as when spelled out."""
    argv, usage, options = RULES_HELP[command]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and capsys.readouterr() == (usage + options, "")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--rules", "nope"])
    error = f"pathrw {command}: error: argument --rules: invalid choice: 'nope' "
    error += "(choose from 'paper7', 'groupoid-complete')\n"
    assert exc.value.code == 2 and capsys.readouterr() == ("", usage + error)


def test_strategy_choices_keep_their_error_text(capsys, monkeypatch):
    """The ``--strategy`` choices and default come from ``rules.STRATEGIES``; ``normalize --help`` is pinned above."""
    argv, usage, _ = RULES_HELP["normalize"]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--strategy", "nope"])
    error = "pathrw normalize: error: argument --strategy: invalid choice: 'nope' "
    error += "(choose from 'leftmost-innermost', 'leftmost-outermost')\n"
    assert exc.value.code == 2 and capsys.readouterr() == ("", usage + error)


def test_confluence_reports_peaks_but_exits_zero(script_file, capsys):
    assert main(["confluence", script_file, "--rules", "paper7", "--max-size", "6"]) == 0
    out = capsys.readouterr().out
    assert "peak: " in out
    assert out.endswith("\nconfluence: rules paper7, max size 6, 2 peaks\n")
    assert main(
        ["confluence", script_file, "--rules", "groupoid-complete", "--max-size", "6"]
    ) == 0
    assert capsys.readouterr().out == "confluence: rules groupoid-complete, max size 6, 0 peaks\n"


@pytest.mark.parametrize("max_size", ["-3", "0"])
def test_confluence_max_size_below_one_is_an_input_error(script_file, capsys, max_size):
    assert main(["confluence", script_file, "--max-size", max_size]) == 2
    assert capsys.readouterr() == ("", "error: max size must be at least 1\n")
    assert main(["confluence", script_file, "--max-size", "1"]) == 0
    assert capsys.readouterr().out == "confluence: rules paper7, max size 1, 0 peaks\n"


def test_explain_command(capsys):
    assert main(["explain", "tt"]) == 0
    out = capsys.readouterr().out
    assert "tau(tau(t, r), s)" in out
    assert main(["explain", "nope"]) == 2
    assert capsys.readouterr().err == "error: no derivation recorded for rule 'nope'\n"


def test_oracle_command(script_file, capsys):
    """The reduced word and endpoints, line for line."""
    for name, word, source, target in (("p", "s", "a", "c"), ("u", "r^-1 s", "b", "c"), ("w", "(empty)", "a", "a")):
        assert main(["oracle", script_file, name]) == 0
        assert capsys.readouterr() == (f"word:   {word}\nsource: {source}\ntarget: {target}\n", "")


FORMERS_SCRIPT = (
    "type F\nelem m n k : F\nlam m := \\x. x\nlam n := \\y. y\nlam k := w\nstep al : m = n alpha\nstep be : n = k\n"
    "path x := tau(xi(v, al), sigma(xi(v, sigma(be))))\n"
    "path y := sigma(mu(m, tau(al, be)))\n"
    "path z := tau(nu(sigma(al), n), nu(al, n))\n"
)


def test_oracle_command_prints_former_letters(tmp_path, capsys):
    """Each former letter is its tag, its operand and its body's canonical term, with its ends."""
    f = tmp_path / "formers.pth"
    f.write_text(FORMERS_SCRIPT, encoding="utf-8")
    expected = {
        "x": "word:   xi[v, al] xi[v, sigma(be)]^-1\nsource: \\v. \\x. x\ntarget: \\v. w\n",
        "y": "word:   mu[m, tau(al, be)]^-1\nsource: (\\x. x) w\ntarget: (\\x. x) (\\x. x)\n",
        "z": "word:   nu[n, sigma(al)] nu[n, al]\nsource: (\\y. y) (\\y. y)\ntarget: (\\y. y) (\\y. y)\n",
    }
    for name, out in expected.items():
        assert main(["oracle", str(f), name]) == 0
        assert capsys.readouterr() == (out, "")


# Each former against the same former pushed through a composition or an inverse (ROADMAP item 19).
NOT_FUNCTORIAL = (
    ("mu(m, tau(al, be))", "tau(mu(m, al), mu(m, be))"),
    ("mu(m, sigma(al))", "sigma(mu(m, al))"),
    ("xi(v, tau(al, be))", "tau(xi(v, al), xi(v, be))"),
)


@pytest.mark.parametrize("lhs, rhs", NOT_FUNCTORIAL, ids=["mu-tau", "mu-sigma", "xi-tau"])
def test_formers_are_not_functorial(lhs, rhs, tmp_path, capsys):
    """A former over a composition is its own generator: no rule set, nor the oracle, splits it."""
    f = tmp_path / "functor.pth"
    f.write_text(FORMERS_SCRIPT + f"path p := {lhs}\npath q := {rhs}\n", encoding="utf-8")
    script = parse_script(f.read_text(encoding="utf-8"))
    p, q = script.paths["p"], script.paths["q"]
    for rs in (PAPER7, GROUPOID_COMPLETE):
        assert decide_rw_equal(p, q, rs, script.context) == NotEqual("reduced words differ")
    assert oracle_equal(p, q, script.context) is False
    for rules in ("paper7", "groupoid-complete"):
        assert main(["equal", str(f), "p", "q", "--rules", rules]) == 1
        assert capsys.readouterr() == ("not equal: reduced words differ\n", "")


def test_a_former_over_a_unit_is_a_letter(tmp_path, capsys):
    """``xi(v, rho(m))`` reduces to no shorter word: its one letter is the former over ``rho(m)``."""
    f = tmp_path / "unit.pth"
    f.write_text(FORMERS_SCRIPT + "path u := xi(v, rho(m))\n", encoding="utf-8")
    assert main(["oracle", str(f), "u"]) == 0
    assert capsys.readouterr() == ("word:   xi[v, rho(m)]\nsource: \\v. \\x. x\ntarget: \\v. \\x. x\n", "")


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "pathrw.cli", "explain", "sr"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sigma(rho)" in proc.stdout


# -- mutated documents: every failure is a PathRwError ---------------------

TERM_KEYS = ("start", "end")
STEP_TERM_KEYS = ("before", "after")
STRAYS = "@!#é1ω-"
WRONG_VALUES = (5, -1, 1.5, True, None, "x", [], ["x"], {}, {"x": 1})


def _documents(tmp_path, capsys):
    """``equal --json`` and ``normalize --json`` documents, with and without a lambda context."""
    script = tmp_path / "mixed.pth"
    script.write_text(
        EXAMPLE + "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"
        "path f := xi(v, tau(al, sigma(al)))\npath w2 := rho(a)\n",
        encoding="utf-8",
    )
    runs = [
        ["equal", str(script), "p", "q"],
        ["equal", str(script), "w", "w2", "--rules", "groupoid-complete"],
        ["normalize", str(script), "p"],
        ["normalize", str(script), "f", "--rules", "groupoid-complete"],
    ]
    docs = []
    for argv in runs:
        assert main(argv + ["--json"]) == 0
        docs.append(doc_from_json(capsys.readouterr().out))
    return docs


def _term_slots(doc):
    """(container, key) of every term string in the document."""
    slots = [(doc, key) for key in TERM_KEYS]
    for step in doc["steps"]:
        slots += [(step, key) for key in STEP_TERM_KEYS]
    return slots


def _mutate_term(text, others, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return f"truncated at {len(text)}", text[: rng.randrange(len(text) + 1)]
    if kind == 1:
        other = rng.choice(others)
        a, b = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        c, d = sorted(rng.randrange(len(other) + 1) for _ in range(2))
        return "spliced", text[:a] + other[c:d] + text[b:]
    if kind == 2:
        depth = rng.choice((3, 300, 3000))
        wrap = rng.choice([("sigma(", ")"), ("tau(", ", rho(a))"), ("tau(rho(a), ", ")"), ("xi(v, ", ")")])
        return f"nested {depth} deep in {wrap[0]}", wrap[0] * depth + text + wrap[1] * depth
    k = rng.randrange(len(text) + 1)
    return "stray character", text[:k] + rng.choice(STRAYS) + text[k:]


def _containers(doc):
    """Every JSON object in the document, with a name for it."""
    found, stack = [], [("document", doc)]
    while stack:
        name, node = stack.pop()
        if isinstance(node, dict):
            found.append((name, node))
            stack += [(f"{name}.{key}", value) for key, value in node.items()]
        elif isinstance(node, list):
            stack += [(f"{name}[{i}]", value) for i, value in enumerate(node)]
    return found


def _mutant(doc, rng):
    """A deep copy of ``doc`` with one seeded mutation, and a description of it."""
    doc = copy.deepcopy(doc)
    kind = rng.randrange(5)
    if kind == 0 or not doc["steps"]:
        container, key = rng.choice(_term_slots(doc))
        others = [c[k] for c, k in _term_slots(doc)]
        what, container[key] = _mutate_term(container[key], others, rng)
        return doc, f"{key}: {what}"
    if kind == 1:
        name, container = rng.choice(_containers(doc))
        key = rng.choice(sorted(container))
        container[key] = rng.choice(WRONG_VALUES)
        return doc, f"{name}.{key} = {container[key]!r}"
    if kind == 2:
        name, container = rng.choice([c for c in _containers(doc) if c[1]])
        key = rng.choice(sorted(container))
        del container[key]
        return doc, f"{name} without {key}"
    step = rng.choice(doc["steps"])
    if kind == 3:
        step["direction"] = rng.choice(("sideways", "", "FORWARD", "reverse ", "forward\n"))
        return doc, f"direction {step['direction']!r}"
    step["position"] = step["position"] + [rng.choice((-1, -2, 0, 1, 7))]
    step["position"][rng.randrange(len(step["position"]))] *= -1
    return doc, f"position {step['position']}"


def test_mutated_documents_raise_only_path_errors(tmp_path, capsys):
    docs = _documents(tmp_path, capsys)
    for doc in docs:
        assert replay_document(doc)
    rng = random.Random(20)
    for _ in range(1500):
        bad, what = _mutant(rng.choice(docs), rng)
        for read in (replay_document, derivation_from_doc):
            try:
                read(bad)
            except PathRwError:
                pass
            except Exception as exc:  # noqa: BLE001 - the gate reports any other class
                pytest.fail(f"{read.__name__} on a document with {what}: {type(exc).__name__}: {exc}")


# -- deep terms, document levels and law levels ------------------------------


def test_two_thousand_nested_xis_run_through_the_cli(tmp_path, capsys):
    n = 2_000
    script = tmp_path / "deep.pth"
    script.write_text(LAMBDA_SCRIPT + "path p := " + "xi(v, " * n + "al" + ")" * n + "\n", encoding="utf-8")
    text = "xi(v, " * n + "al" + ")" * n
    assert main(["normalize", str(script), "p"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"normal: {text}  [0 steps]"
    assert main(["oracle", str(script), "p"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "word:   xi[v, " + text[len("xi(v, ") : -1] + "]"
    assert out[1] == "source: " + "\\v. " * n + "\\x. x"
    assert main(["equal", str(script), "p", "p"]) == 0
    assert capsys.readouterr().out == f"equal: {text} == {text}\n"


def test_two_thousand_leaf_chain_runs_through_the_cli(tmp_path, capsys):
    links = [("r", "s", "sigma(u)")[k % 3] for k in range(2_000)]
    text = "".join(f"tau({link}, " for link in links[:-1]) + links[-1] + ")" * (len(links) - 1)
    script = tmp_path / "chain.pth"
    script.write_text(TRIANGLE_SCRIPT + f"path ch := {text}\n", encoding="utf-8")
    assert main(["oracle", str(script), "ch"]) == 0
    word = " ".join(("r", "s", "u^-1")[k % 3] for k in range(2_000))
    assert capsys.readouterr().out == f"word:   {word}\nsource: a\ntarget: c\n"
    assert main(["equal", str(script), "ch", "ch"]) == 0
    assert capsys.readouterr().out == f"equal: {text} == {text}\n"
    assert main(["normalize", str(script), "ch", "--strategy", "leftmost-outermost"]) == 0
    assert capsys.readouterr().out == f"start:  {text}\nnormal: {text}  [0 steps]\n"


@pytest.mark.parametrize("level", [2, 7, 0, -3, True])
def test_document_level_must_be_its_terms_level(script_file, capsys, level):
    main(["equal", script_file, "p", "q", "--json"])
    doc = doc_from_json(capsys.readouterr().out)
    assert doc["level"] == 1 and replay_document(doc)
    doc["level"] = level
    if level is True:
        message = "document 'level' must be an integer, not bool"
    else:
        message = f"document 'start' is at level 1, not the document's {level}"
    for read in (replay_document, derivation_from_doc):
        with pytest.raises(PathRwError, match=re.escape(message)):
            read(doc)


def test_document_step_terms_must_be_at_the_document_level(script_file, capsys):
    main(["equal", script_file, "p", "q", "--json"])
    doc = doc_from_json(capsys.readouterr().out)
    doc["steps"][1]["after"] = "rho(tau(r, sigma(r)))"
    with pytest.raises(PathRwError, match=re.escape("step 1 'after' is at level 2, not the document's 1")):
        replay_document(doc)


@pytest.mark.parametrize("level", ["0", "-1"])
def test_laws_below_level_one_are_input_errors(script_file, capsys, level):
    assert main(["laws", script_file, "--level", level]) == 2
    assert capsys.readouterr().err == "error: levels start at 1\n"


@pytest.mark.parametrize("samples", ["-3", "-1"])
def test_laws_negative_samples_are_input_errors(script_file, capsys, samples):
    assert main(["laws", script_file, "--samples", samples]) == 2
    assert capsys.readouterr() == ("", "error: samples must be at least 0\n")
    assert main(["laws", script_file, "--samples", "0"]) == 0
    assert capsys.readouterr().out.endswith(", 0 checks, 0 failures\n")


def test_laws_at_level_two_thousand_exit_zero(script_file, capsys):
    assert main(["laws", script_file, "--level", "2000", "--samples", "1"]) == 0
    assert capsys.readouterr().out.endswith("laws: level 2000, seed 0, 5 checks, 0 failures\n")


def test_laws_on_a_script_with_no_elements_is_an_input_error(tmp_path, capsys):
    bare = tmp_path / "bare.pth"
    bare.write_text("type A\n", encoding="utf-8")
    for level in ("1", "3"):
        assert main(["laws", str(bare), "--level", level, "--samples", "1"]) == 2
        assert capsys.readouterr() == ("", "error: no elements to sample paths from\n")
    assert main(["laws", str(bare), "--samples", "0"]) == 0
    assert capsys.readouterr().out.endswith("laws: level 1, seed 0, 0 checks, 0 failures\n")
