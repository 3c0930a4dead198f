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
    Mu,
    Nu,
    Object,
    PathTerm,
    Position,
    Refl,
    StepAtom,
    Sym,
    Trans,
    Xi,
    endpoints,
    format_term,
    level,
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
from .oracle import word


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
        """The same step read backwards; a direction other than forward or reverse is an error."""
        if self.direction not in (FORWARD, REVERSE):
            raise PathRwError(f"step direction must be '{FORWARD}' or '{REVERSE}', not {self.direction!r}")
        direction = REVERSE if self.direction == FORWARD else FORWARD
        return RewriteStep(self.rule, self.position, direction, self.after, self.before, self.level)


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
    schema = rs.find(rule, level(t))
    binding = schema.match(subterm_at(t, pos))
    if binding is None:
        raise NoRedex(f"rule '{rule}' does not match at position {pos}")
    after = replace_at(t, pos, build_template(schema.rhs, binding, ctx))
    return after, RewriteStep(schema.display_name, pos, FORWARD, t, after, schema.level)


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
    """Termination measure: (size, total size of left factors of compositions).

    A node counts once per composition whose left factor holds it: one pre-order walk counts both.
    """
    count = weight = 0
    stack = [(t, 0)]
    while stack:
        node, lefts = stack.pop()
        count += 1
        weight += lefts
        tp = type(node)
        if tp is Trans:
            stack += ((node.right, lefts), (node.left, lefts + 1))
        elif tp is Sym or tp is Xi or tp is Mu or tp is Nu:
            stack.append((node.body, lefts))
    return count, weight


def concat_derivations(d1: Derivation, d2: Derivation) -> Derivation:
    """Chain two derivations; d2 must start where d1 ends, at the same level."""
    if d1.level != d2.level:
        raise ChainMismatch(f"levels differ: {d1.level} != {d2.level}")
    if d1.end != d2.start:
        raise ChainMismatch("second derivation does not start at the first one's end")
    return Derivation(d1.start, d1.steps + d2.steps, d1.level)


def invert_derivation(d: Derivation) -> Derivation:
    """The same witness read backwards; every step's direction flips (see ``RewriteStep.flipped``)."""
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
    """True iff every step is a legal contraction where recorded and the chain links.

    A check builds no term but the rule's right-hand side: it walks the redex
    side and the produced side down the position together. Replay returns
    False at the first step that does not link to the one before or is at
    another level, whose direction is neither forward nor reverse, whose rule
    is unknown or pinned to another level, that has no subterm at its
    position, or where the rule does not match or produces another subterm.
    """
    cur = d.start
    for step in d.steps:
        if step.level != d.level or step.before != cur or not _replays(step, rs, ctx):
            return False
        cur = step.after
    return True


def _replays(step: RewriteStep, rs: RuleSet, ctx: Context) -> bool:
    """``replace_at(redex, pos, contractum) == produced``, without building the left side."""
    if step.direction not in (FORWARD, REVERSE):
        return False
    redex, produced = (step.before, step.after) if step.direction == FORWARD else (step.after, step.before)
    try:
        schema = rs.find(step.rule, level(redex))
    except PathRwError:
        return False
    for i in step.position:  # same class, same label, equal children off the path
        tp = type(redex)
        if tp is not type(produced) or i < 0:
            return False
        if tp is Trans and i < 2:
            off, off2 = (redex.right, produced.right) if i == 0 else (redex.left, produced.left)
            if off is not off2 and off != off2:
                return False
            redex, produced = (redex.left, produced.left) if i == 0 else (redex.right, produced.right)
        elif i == 0 and (
            tp is Sym
            or tp is Xi and redex.var == produced.var
            or tp is Mu and redex.func == produced.func
            or tp is Nu and redex.arg == produced.arg
        ):
            redex, produced = redex.body, produced.body
        else:
            return False
    binding = schema.match(redex)
    try:
        return binding is not None and build_template(schema.rhs, binding, ctx) == produced
    except PathRwError:
        return False


def decide_rw_equal(s: PathTerm, t: PathTerm, rs: RuleSet, ctx: Context) -> Equal | NotEqual:
    """Decide whether two same-level terms are connected by contractions.

    The verdict comes from the reduced-word oracle and is exact; an Equal
    result carries a witness that replays over ``rs``. Each side's word
    checks it, so an ill-formed side raises what ``endpoints`` raises.
    """
    if level(s) != level(t):
        raise LevelMismatch(f"levels differ: {level(s)} != {level(t)}")
    ws = word(s, ctx)
    wt = ws if t is s else word(t, ctx)
    if (ws.source, ws.target) != (wt.source, wt.target):
        return NotEqual("endpoint mismatch")
    if s == t:
        return Equal(Derivation(s, (), level(s)))
    if ws != wt:
        return NotEqual("reduced words differ")
    ds = _record(s, GROUPOID_COMPLETE, ctx, "leftmost-innermost", rs)  # both sides checked by their words
    dt = _record(t, GROUPOID_COMPLETE, ctx, "leftmost-innermost", rs)
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
