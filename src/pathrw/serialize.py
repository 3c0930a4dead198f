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


def _require(entry: dict[str, Any], key: str, where: str) -> Any:
    try:
        return entry[key]
    except KeyError:
        raise PathRwError(f"{where} has no '{key}'") from None


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

    ctx = Context(
        base_types=tuple(_require(doc, "types", "context")),
        elements=dict(_require(doc, "elements", "context")),
        lambda_elements={name: parse_lambda_expr(text) for name, text in doc.get("lambdas", {}).items()},
        atoms={
            name: AtomDecl(
                _require(entry, "source", f"atom '{name}'"),
                _require(entry, "target", f"atom '{name}'"),
                _require(entry, "type", f"atom '{name}'"),
                entry.get("tag", "declared"),
            )
            for name, entry in _require(doc, "atoms", "context").items()
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


def derivation_from_doc(doc: dict[str, Any]) -> tuple[Derivation, Context, str]:
    if doc.get("format") != FORMAT_NAME:
        raise PathRwError(f"not a {FORMAT_NAME} document")
    ctx = context_from_doc(_require(doc, "context", "document"))
    lv = _require(doc, "level", "document")
    start = parse_path_expr(_require(doc, "start", "document"), ctx)
    steps = tuple(
        RewriteStep(
            rule=_require(entry, "rule", f"step {i}"),
            position=tuple(_require(entry, "position", f"step {i}")),
            direction=_require(entry, "direction", f"step {i}"),
            before=parse_path_expr(_require(entry, "before", f"step {i}"), ctx),
            after=parse_path_expr(_require(entry, "after", f"step {i}"), ctx),
            level=lv,
        )
        for i, entry in enumerate(_require(doc, "steps", "document"))
    )
    return Derivation(start, steps, lv), ctx, _require(doc, "rules", "document")


def replay_document(doc: dict[str, Any]) -> bool:
    """Rebuild everything from the document alone and replay the derivation."""
    derivation, ctx, rules_name = derivation_from_doc(doc)
    end = parse_path_expr(_require(doc, "end", "document"), ctx)
    if derivation.end != end:
        return False
    return replay_derivation(derivation, rule_set(rules_name), ctx)


def doc_to_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2)


def doc_from_json(text: str) -> dict[str, Any]:
    return json.loads(text)
