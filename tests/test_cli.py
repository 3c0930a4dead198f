"""Command-line surface and self-contained derivation documents."""

from __future__ import annotations

import copy
import re

import pytest

from pathrw.cli import main
from pathrw.engine import normalize
from pathrw.errors import PathRwError
from pathrw.rules import PAPER7
from pathrw.script import parse_script
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
    assert "level" in capsys.readouterr().err


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


def test_confluence_reports_peaks_but_exits_zero(script_file, capsys):
    assert main(["confluence", script_file, "--rules", "paper7", "--max-size", "6"]) == 0
    out = capsys.readouterr().out
    assert "peak" in out
    assert main(
        ["confluence", script_file, "--rules", "groupoid-complete", "--max-size", "6"]
    ) == 0
    assert "0 peaks" in capsys.readouterr().out


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
