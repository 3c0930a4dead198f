"""The README's examples run as written, so the docs cannot drift from the code."""

from __future__ import annotations

from pathrw.script import parse_script

from conftest import readme_blocks


def test_readme_library_example_runs():
    (block,) = readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_script_parses():
    (block,) = readme_blocks("pth")
    assert set(parse_script(block).paths) == {"p", "q"}
