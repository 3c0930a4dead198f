"""Contraction engine.

Executes single contractions, normalizes under a strategy, decides path
equality with an explicit replayable derivation witness, and lifts
derivations into path terms one level up.

Normalization records the contractions of the one walker,
``rules.contractions``. Equality verdicts come from the reduced-word oracle;
the witness is built by the same walk, normalizing both sides under the
groupoid-complete rule set. When the requested rule set lacks the extension
rules, each extension contraction is expanded in place by instantiating the
seven-rule witness its schema carries, so the witness always replays against
the requested rules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import ChainMismatch, LevelMismatch, NoRedex, PathRwError
from .terms import (
    Context,
    Object,
    PathTerm,
    Position,
    Refl,
    StepAtom,
    Sym,
    Trans,
    endpoints,
    format_term,
    level,
    path_children,
    replace_at,
    subterm_at,
)
from .rules import (
    FORWARD,
    GROUPOID_COMPLETE,
    REVERSE,
    RuleSchema,
    RuleSet,
    build_template,
    contractions,
)


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One contraction: ``before`` becomes ``after`` by ``rule`` at ``position``.

    A reverse step records the inverse traversal: the rule applied at
    ``position`` in ``after`` yields ``before``.
    """

    rule: str
    position: Position
    direction: str
    before: PathTerm
    after: PathTerm
    level: int

    def flipped(self) -> RewriteStep:
        return RewriteStep(
            self.rule,
            self.position,
            REVERSE if self.direction == FORWARD else FORWARD,
            self.after,
            self.before,
            self.level,
        )


@dataclass(frozen=True, slots=True)
class Derivation:
    """A finite, possibly empty chain of steps witnessing path equality."""

    start: PathTerm
    steps: tuple[RewriteStep, ...]
    level: int

    @property
    def end(self) -> PathTerm:
        return self.steps[-1].after if self.steps else self.start


@dataclass(frozen=True, slots=True)
class Equal:
    witness: Derivation


@dataclass(frozen=True, slots=True)
class NotEqual:
    reason: str


def contract_once(
    t: PathTerm, rule: str, pos: Position, rs: RuleSet, ctx: Context
) -> tuple[PathTerm, RewriteStep]:
    """Apply ``rule`` at ``pos`` in ``t``; returns the contractum and the step."""
    schema, after = _contract(t, rule, pos, rs, ctx)
    return after, RewriteStep(schema.display_name, pos, FORWARD, t, after, schema.level)


def _contract(
    t: PathTerm, rule: str, pos: Position, rs: RuleSet, ctx: Context
) -> tuple[RuleSchema, PathTerm]:
    """The schema ``rule`` names at ``t``'s level, and its contractum at ``pos`` in ``t``."""
    schema = rs.find(rule, level(t))
    binding = schema.match(subterm_at(t, pos))
    if binding is None:
        raise NoRedex(f"rule '{rule}' does not match at position {pos}")
    return schema, replace_at(t, pos, build_template(schema.rhs, binding, ctx))


def normalize(
    t: PathTerm, rs: RuleSet, ctx: Context, strategy: str = "leftmost-innermost"
) -> tuple[PathTerm, Derivation]:
    """Contract the first redex under ``strategy`` until none remains.

    ``t`` must be well formed: ``endpoints`` checks it once, on entry.
    """
    endpoints(t, ctx)
    d = _record(t, rs, ctx, strategy, rs)
    return d.end, d


def mu_measure(t: PathTerm) -> tuple[int, int]:
    """Termination measure: (size, total size of left factors of compositions)."""

    def go(node: PathTerm) -> tuple[int, int]:
        if isinstance(node, Trans):
            left_size, left_weight = go(node.left)
            right_size, right_weight = go(node.right)
            return 1 + left_size + right_size, left_weight + right_weight + left_size
        children = path_children(node)
        if not children:
            return 1, 0
        body_size, body_weight = go(children[0])
        return 1 + body_size, body_weight

    return go(t)


def concat_derivations(d1: Derivation, d2: Derivation) -> Derivation:
    """Chain two derivations; d2 must start where d1 ends, at the same level."""
    if d1.level != d2.level:
        raise ChainMismatch(f"levels differ: {d1.level} != {d2.level}")
    if d1.end != d2.start:
        raise ChainMismatch("second derivation does not start at the first one's end")
    return Derivation(d1.start, d1.steps + d2.steps, d1.level)


def invert_derivation(d: Derivation) -> Derivation:
    """The same witness read backwards; every step's direction flips."""
    steps = tuple(step.flipped() for step in reversed(d.steps))
    return Derivation(d.end, steps, d.level)


def derivation_to_path(d: Derivation) -> PathTerm:
    """Lift a level-n derivation into a level-(n+1) path term.

    The empty derivation lifts to the trivial path on its start; a forward
    step becomes a step atom, a reverse step the inverse of the flipped
    step's atom; several steps fold into a left-nested composition.
    """
    if not d.steps:
        return Refl(Object(d.level, d.start))
    pieces = [
        StepAtom(step) if step.direction == FORWARD else Sym(StepAtom(step.flipped()))
        for step in d.steps
    ]
    return functools.reduce(Trans, pieces)


def replay_derivation(d: Derivation, rs: RuleSet, ctx: Context) -> bool:
    """True iff every step is a legal contraction where recorded and the chain links."""
    cur = d.start
    for step in d.steps:
        if step.level != d.level or step.before != cur:
            return False
        redex_side = step.before if step.direction == FORWARD else step.after
        produced = step.after if step.direction == FORWARD else step.before
        try:
            _, out = _contract(redex_side, step.rule, step.position, rs, ctx)
        except PathRwError:
            return False
        if out != produced:
            return False
        cur = step.after
    return True


def decide_rw_equal(s: PathTerm, t: PathTerm, rs: RuleSet, ctx: Context) -> Equal | NotEqual:
    """Decide whether two same-level terms are connected by contractions.

    The verdict comes from the reduced-word oracle and is exact; an Equal
    result carries a witness that replays over ``rs``.
    """
    from .oracle import word

    if level(s) != level(t):
        raise LevelMismatch(f"levels differ: {level(s)} != {level(t)}")
    ends_s = endpoints(s, ctx)
    ends_t = endpoints(t, ctx)
    if ends_s != ends_t:
        return NotEqual("endpoint mismatch")
    if s == t:
        return Equal(Derivation(s, (), level(s)))
    if word(s, ctx) != word(t, ctx):
        return NotEqual("reduced words differ")
    ds = canonical_derivation(s, rs, ctx)
    dt = canonical_derivation(t, rs, ctx)
    if ds.end != dt.end:
        # Terms with one reduced word share a canonical form; anything else is
        # a fault in the groupoid-complete rules, not in the input.
        raise RuntimeError(
            f"internal error: equal reduced words but canonical forms "
            f"{format_term(ds.end)} and {format_term(dt.end)}"
        )
    return Equal(concat_derivations(ds, invert_derivation(dt)))


def canonical_derivation(t: PathTerm, rs: RuleSet, ctx: Context) -> Derivation:
    """Derivation from ``t`` to its canonical form, replayable against ``rs``.

    Normalizes under the groupoid-complete set; when ``rs`` lacks an extension
    rule that fires, the contraction is replaced in place by the seven-rule
    witness its schema carries. ``t`` must be well formed: ``endpoints`` checks
    it once, on entry.
    """
    endpoints(t, ctx)
    return _record(t, GROUPOID_COMPLETE, ctx, "leftmost-innermost", rs)


def _record(
    t: PathTerm, walk_rs: RuleSet, ctx: Context, strategy: str, replay_rs: RuleSet
) -> Derivation:
    """Record the walker's contractions under ``walk_rs`` as steps replayable against ``replay_rs``."""
    available = {schema.name for schema in replay_rs.schemas}
    lv = level(t)
    steps: list[RewriteStep] = []
    for schema, pos, before, after in contractions(t, walk_rs, ctx, strategy):
        if schema.witness and schema.name not in available:
            steps.extend(_expand(schema, pos, before, ctx, lv))
        else:
            steps.append(RewriteStep(schema.display_name, pos, FORWARD, before, after, lv))
    return Derivation(t, tuple(steps), lv)


def _expand(schema: RuleSchema, pos: Position, cur: PathTerm, ctx: Context, lv: int):
    """The steps of ``schema``'s seven-rule witness, at the redex at ``pos`` in ``cur``."""
    binding = schema.match(subterm_at(cur, pos))
    for rule, rel, direction, template in schema.witness:
        after = replace_at(cur, pos, build_template(template, binding, ctx))
        name = rule if lv == 1 else f"{rule}{lv}"
        yield RewriteStep(name, pos + rel, direction, cur, after, lv)
        cur = after
