"""Command-line surface and self-contained derivation documents."""

from __future__ import annotations

import copy
import random
import re

import pytest

from pathrw.cli import main
from pathrw.engine import invert_derivation, normalize
from pathrw.errors import PathRwError
from pathrw.groupoid import run_laws
from pathrw.rules import PAPER7
from pathrw.script import parse_path_expr, parse_script
from pathrw.serialize import (
    derivation_from_doc,
    derivation_to_doc,
    doc_from_json,
    doc_to_json,
    replay_document,
)

EXAMPLE = """\
type A
elem a b c : A
step r : a = b
step s : a = c
path p := tau(r, tau(sigma(r), s))
path q := s
path w := sigma(rho(a))
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


def test_document_tampering_detected(script_file, capsys):
    main(["equal", script_file, "p", "q", "--json"])
    doc = doc_from_json(capsys.readouterr().out)
    doc["steps"][0]["position"] = [0, 0]
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


def test_confluence_reports_peaks_but_exits_zero(script_file, capsys):
    assert main(["confluence", script_file, "--rules", "paper7", "--max-size", "6"]) == 0
    out = capsys.readouterr().out
    assert "peak" in out
    assert main(
        ["confluence", script_file, "--rules", "groupoid-complete", "--max-size", "6"]
    ) == 0
    assert "0 peaks" in capsys.readouterr().out


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
    assert main(["oracle", script_file, "p"]) == 0
    out = capsys.readouterr().out
    assert "word:   s" in out
    assert "source: a" in out
    assert main(["oracle", script_file, "w"]) == 0
    assert "(empty)" in capsys.readouterr().out


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

LAMBDA_SCRIPT = "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"
TRIANGLE_SCRIPT = "type A\nelem a b c : A\nstep r : a = b\nstep s : b = c\nstep u : a = c\n"


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
