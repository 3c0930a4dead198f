"""Span tracing at pathrw's module boundaries, installed from outside.

``Tracer.install`` replaces every function one pathrw module imports from
another with a wrapper that records a span: name, start, end, parent span
and the operation it belongs to. Spans stay in memory (up to a cap) and are
written out once at the end; per-name totals are kept for every call.

Where the wrapper goes:

- A module-level ``from .x import f`` is wrapped in the importing module
  only, so a function's recursive calls to its own global stay unwrapped.
- A function-level ``from .x import f`` reads ``x.f`` at call time, so it
  can only be wrapped in ``x`` itself; ``x``'s own calls then go through the
  wrapper too. A wrapper called directly under a span of its own name adds
  no span, so recursion through it (``oracle.word``) costs one extra frame
  per level and records one span.
- ``OWN`` lists the few functions with a per-layer metric that no other
  module imports; they are wrapped in their own module.
- Per-node helpers (``match_pattern`` and the like) and generators are
  never wrapped: the wrapper's cost would swamp their self time, and a
  generator's span would end before its work starts. (A generator the
  benchmark calls directly is drained inside its span instead.)

The recursion limit is never raised; workloads keep terms shallow enough
for the extra frames.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import time
from pathlib import Path

# Helpers called once per tree node or per pattern node.
PER_NODE = frozenset(
    {
        "match_pattern",
        "path_children",
        "subterm_at",
        "level",
        "size",
        "fmt_position",
        "format_lambda",
        "format_object",
    }
)

# Functions wrapped in their defining module although no other module
# imports them, because a per-layer metric needs their span. None of them
# recurses, so wrapping the module's own global is safe.
OWN = (("engine", "canonical_derivation"),)

MAX_SPANS = 50_000


def _imports(package_dir: Path, package: str):
    """(importing module, defining module, name, at module level) per import."""
    for path in sorted(package_dir.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    yield (
                        f"{package}.{path.stem}",
                        f"{package}.{node.module}",
                        alias.name,
                        id(node) in top_level,
                    )


class Tracer:
    """Records spans for wrapped calls; one thread, one open span stack."""

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.pair_time: dict[tuple[str, str], float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        stack = self.stack
        observe = self.observers.get(name)
        if inspect.isgeneratorfunction(fn):
            generator = fn

            def fn(*args, **kwargs):  # the work happens while iterating
                return list(generator(*args, **kwargs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [name, time.perf_counter(), 0.0, self._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return wrapper

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_id = parent[3]
            key = (parent[0], name)
            self.pair_time[key] = self.pair_time.get(key, 0.0) + duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent_id, self.op, name, start, end))
        else:
            self.dropped += 1

    def run_op(self, index: int, fn, *args):
        """Run one operation under a root span named ``op``."""
        self.op = index
        return self.span("op", fn)(*args)

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        self.wrapped.add(name)
        setattr(owner, attr, self.span(name, original))

    def install(self, package: str, api) -> None:
        """Wrap pathrw's cross-module imports and the benchmark's ``api``.

        ``api`` is the namespace through which the workloads call pathrw;
        its attributes are wrapped under their defining module's name. A
        generator among them is drained inside its span and returns a list.
        """
        pkg = importlib.import_module(package)
        seen_lazy = set()
        for importer, definer, attr, top in _imports(Path(pkg.__file__).parent, package):
            owner = importlib.import_module(importer if top else definer)
            fn = getattr(owner, attr, None)
            if not inspect.isfunction(fn) or attr in PER_NODE:
                continue
            if inspect.isgeneratorfunction(fn) or not fn.__module__.startswith(package + "."):
                continue
            if not top:
                if (definer, attr) in seen_lazy:
                    continue
                seen_lazy.add((definer, attr))
            self._patch(owner, attr, self._name(fn, package))
        for module, attr in OWN:
            owner = importlib.import_module(f"{package}.{module}")
            self._patch(owner, attr, self._name(getattr(owner, attr), package))
        for attr, fn in list(vars(api).items()):
            if inspect.isfunction(fn):
                self._patch(api, attr, self._name(fn, package))

    @staticmethod
    def _name(fn, package: str) -> str:
        return f"{fn.__module__[len(package) + 1:]}.{fn.__name__}"

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent_id, op, name, start, end in self.spans:
                record = {"id": span_id, "parent": parent_id, "op": op, "name": name,
                          "start": start, "end": end}
                out.write(json.dumps(record) + "\n")
            if self.dropped:
                out.write(json.dumps({"dropped": self.dropped}) + "\n")
