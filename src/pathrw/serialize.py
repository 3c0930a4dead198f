"""Self-contained JSON documents for derivations.

A document embeds the context declarations it needs, so it replays without
the original script. Terms are serialized in the script expression syntax;
recorded-step atoms have no script syntax, so documents cover terms built
from declarations (any term the front-end can produce).
"""

from __future__ import annotations

import json
from typing import Any

from .engine import Derivation, RewriteStep, replay_derivation
from .errors import PathRwError
from .lam import format_lambda
from .rules import rule_set
from .script import parse_lambda_expr, parse_path_expr
from .terms import Context, PathTerm, StepAtom, format_term, path_children

FORMAT_NAME = "pathrw-derivation"
FORMAT_VERSION = 1


def _reject_step_atoms(t: PathTerm) -> None:
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, StepAtom):
            raise PathRwError("recorded-step atoms have no script syntax; cannot serialize")
        stack.extend(path_children(node))


_KINDS = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _require(entry: Any, key: str, where: str, kind: type) -> Any:
    """``entry[key]``, which must be a ``kind``; a PathRwError naming the field otherwise."""
    if not isinstance(entry, dict):
        raise PathRwError(f"{where} must be an object, not {type(entry).__name__}")
    try:
        value = entry[key]
    except KeyError:
        raise PathRwError(f"{where} has no '{key}'") from None
    if not isinstance(value, kind):
        raise PathRwError(f"{where} '{key}' must be {_KINDS[kind]}, not {type(value).__name__}")
    return value


def context_to_doc(ctx: Context) -> dict[str, Any]:
    return {
        "types": list(ctx.base_types),
        "elements": dict(ctx.elements),
        "lambdas": {name: format_lambda(value) for name, value in ctx.lambda_elements.items()},
        "atoms": {
            name: {
                "source": decl.source,
                "target": decl.target,
                "type": decl.type_name,
                "tag": decl.tag,
            }
            for name, decl in ctx.atoms.items()
        },
    }


def context_from_doc(doc: dict[str, Any]) -> Context:
    from .terms import AtomDecl

    lambdas = _require(doc, "lambdas", "context", dict) if "lambdas" in doc else {}
    types = _require(doc, "types", "context", list)
    if not all(type(name) is str for name in types):
        raise PathRwError("context 'types' must be a list of strings")
    elements = _require(doc, "elements", "context", dict)
    ctx = Context(
        base_types=tuple(types),
        elements={name: _require(elements, name, "elements", str) for name in elements},
        lambda_elements={
            name: parse_lambda_expr(_require(lambdas, name, "lambdas", str)) for name in lambdas
        },
        atoms={
            name: AtomDecl(
                _require(entry, "source", f"atom '{name}'", str),
                _require(entry, "target", f"atom '{name}'", str),
                _require(entry, "type", f"atom '{name}'", str),
                _require(entry, "tag", f"atom '{name}'", str) if "tag" in entry else "declared",
            )
            for name, entry in _require(doc, "atoms", "context", dict).items()
        },
    )
    ctx.check()
    return ctx


def derivation_to_doc(d: Derivation, ctx: Context, rules_name: str) -> dict[str, Any]:
    """Serialize a derivation with everything needed to replay it standalone."""
    _reject_step_atoms(d.start)
    for step in d.steps:
        _reject_step_atoms(step.before)
        _reject_step_atoms(step.after)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "rules": rules_name,
        "level": d.level,
        "context": context_to_doc(ctx),
        "start": format_term(d.start),
        "end": format_term(d.end),
        "steps": [
            {
                "rule": step.rule,
                "position": list(step.position),
                "direction": step.direction,
                "before": format_term(step.before),
                "after": format_term(step.after),
            }
            for step in d.steps
        ],
    }


def _position(entry: dict[str, Any], where: str) -> tuple[int, ...]:
    position = _require(entry, "position", where, list)
    if not all(type(i) is int and i >= 0 for i in position):
        raise PathRwError(f"{where} 'position' must be a list of child indices")
    return tuple(position)


def derivation_from_doc(doc: dict[str, Any]) -> tuple[Derivation, Context, str]:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise PathRwError(f"not a {FORMAT_NAME} document")
    ctx = context_from_doc(_require(doc, "context", "document", dict))
    lv = _require(doc, "level", "document", int)
    start = parse_path_expr(_require(doc, "start", "document", str), ctx)
    steps = tuple(
        RewriteStep(
            rule=_require(entry, "rule", f"step {i}", str),
            position=_position(entry, f"step {i}"),
            direction=_require(entry, "direction", f"step {i}", str),
            before=parse_path_expr(_require(entry, "before", f"step {i}", str), ctx),
            after=parse_path_expr(_require(entry, "after", f"step {i}", str), ctx),
            level=lv,
        )
        for i, entry in enumerate(_require(doc, "steps", "document", list))
    )
    return Derivation(start, steps, lv), ctx, _require(doc, "rules", "document", str)


def replay_document(doc: dict[str, Any]) -> bool:
    """Rebuild everything from the document alone and replay the derivation."""
    derivation, ctx, rules_name = derivation_from_doc(doc)
    end = parse_path_expr(_require(doc, "end", "document", str), ctx)
    if derivation.end != end:
        return False
    return replay_derivation(derivation, rule_set(rules_name), ctx)


def doc_to_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2)


def doc_from_json(text: str) -> dict[str, Any]:
    return json.loads(text)
