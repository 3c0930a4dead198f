"""``terms.gc_paused``: four whole jobs run with the cyclic garbage collector
paused, and each leaves the collector as it found it.

That the pause loses nothing, since the jobs leave no cyclic garbage, is
``tests/test_walker.py::test_jobs_leave_no_reference_cycles``.
"""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import pkgutil

import pytest

import pathrw
from pathrw import cli, groupoid, oracle, serialize
from pathrw.engine import normalize
from pathrw.errors import PathRwError
from pathrw.rules import PAPER7
from pathrw.script import parse_script
from pathrw.terms import gc_paused

PAUSED = {cli.main, groupoid.run_laws, oracle.check_confluence, serialize.replay_document}

SCRIPT = (
    "type A\nelem a b c : A\nstep r : a = b\nstep s : b = c\nstep u : a = c\n"
    "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"
    "path p := tau(tau(r, s), sigma(u))\npath q := tau(al, sigma(al))\n"
)


@pytest.fixture
def jobs(tmp_path):
    """Each paused job, as (name, the inner call to probe, a call that runs the job)."""
    file = tmp_path / "s.pth"
    file.write_text(SCRIPT, encoding="utf-8")
    script = parse_script(SCRIPT)
    ctx = script.context
    doc = serialize.derivation_to_doc(normalize(script.paths["q"], PAPER7, ctx)[1], ctx, PAPER7.name)
    return [
        ("run_laws", groupoid, "_composable_triple", lambda: groupoid.run_laws(ctx, 2, 2, 0)),
        ("check_confluence", oracle, "_innermost", lambda: oracle.check_confluence(PAPER7, ctx, 4)),
        ("main", cli, "parse_script", lambda: cli.main(["normalize", str(file), "p"])),
        ("replay_document", serialize, "replay_derivation", lambda: serialize.replay_document(doc)),
    ]


def test_each_job_runs_with_the_collector_paused_and_enables_it_again(jobs, monkeypatch, capsys):
    for name, owner, inner, run in jobs:
        seen = []
        real = getattr(owner, inner)

        def probe(*args, _real=real, _seen=seen, **kwargs):
            _seen.append(gc.isenabled())
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, inner, probe)
        assert gc.isenabled()
        run()
        assert seen and not any(seen), name
        assert gc.isenabled(), name


def test_the_collector_is_enabled_again_after_a_raise_and_after_system_exit(capsys):
    assert gc.isenabled()
    with pytest.raises(PathRwError, match="levels start at 1"):
        groupoid.run_laws(parse_script(SCRIPT).context, 0, 1, 0)
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        cli.main(["bogus"])
    assert gc.isenabled()


def test_a_caller_that_paused_the_collector_finds_it_still_paused(jobs, capsys):
    gc.disable()
    try:
        for name, _, _, run in jobs:
            run()
            assert not gc.isenabled(), name
    finally:
        gc.enable()


def test_gc_paused_decorates_exactly_the_four_jobs():
    decorated = set()
    for info in pkgutil.iter_modules(pathrw.__path__):
        module = importlib.import_module(f"pathrw.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "gc_paused" for d in node.decorator_list
            ):
                decorated.add(getattr(module, node.name))
    assert decorated == PAUSED


def test_gc_paused_keeps_the_function_metadata():
    for fn in PAUSED:
        assert fn.__wrapped__.__name__ == fn.__name__ and fn.__wrapped__.__module__ == fn.__module__
        assert fn.__qualname__ == fn.__wrapped__.__qualname__ and fn.__doc__ == fn.__wrapped__.__doc__
    assert inspect.signature(cli.main) == inspect.signature(cli.main.__wrapped__)


def test_gc_paused_refuses_a_generator_function():
    def pairs():
        yield 1

    with pytest.raises(TypeError, match="cannot wrap the generator function"):
        gc_paused(pairs)
