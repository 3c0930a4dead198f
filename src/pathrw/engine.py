"""Contraction engine.

Executes single contractions, normalizes under a strategy, decides path
equality with an explicit replayable derivation witness, and lifts
derivations into path terms one level up.

Normalization records the contractions of the one walker,
``rules.contractions``, as edits: a derivation the engine builds holds its
start, its end and, per step, the rule, position and direction with the
subterms at that position before and after. No step rebuilds the term's
spine; the whole terms of each step are built only when ``Derivation.steps``
is first read. Equality verdicts come from the reduced-word oracle; the
witness is built by the same walk, normalizing both sides under the
groupoid-complete rule set. When the requested rule set lacks the extension
rules, each extension contraction is expanded in place into the edits of
the seven-rule witness its schema carries, so the witness always replays
against the requested rules.

Replay is one loop over edits that moves a zipper from position to position
(Huet, "The Zipper", JFP 1997). A derivation built by hand, or read from a
document, is first checked to link and reduced to edits.
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
    with_child,
)
from .rules import (
    FORWARD,
    GROUPOID_COMPLETE,
    REVERSE,
    RuleSchema,
    RuleSet,
    build_template,
    contractions,
    step_name,
)
from .oracle import word

# One step of a derivation as the engine records it:
# (rule, position, direction, subterm at the position before, and after).
Edit = tuple[str, Position, str, PathTerm, PathTerm]


def _flipped(direction: str) -> str:
    if direction == FORWARD:
        return REVERSE
    if direction == REVERSE:
        return FORWARD
    raise PathRwError(f"step direction must be '{FORWARD}' or '{REVERSE}', not {direction!r}")


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
        return RewriteStep(self.rule, self.position, _flipped(self.direction), self.after, self.before, self.level)


@dataclass(frozen=True)
class Derivation:
    """A finite, possibly empty chain of steps witnessing path equality.

    One built by hand holds its steps. One the engine builds holds its start,
    its end and its edits (see ``Edit``) until ``steps`` is first read, which
    builds the steps and keeps them in place of the edits. Either way the
    fields, ``==``, ``hash`` and ``repr`` are those of the steps.
    """

    __slots__ = ("start", "steps", "level", "_edits", "_end")
    start: PathTerm
    steps: tuple[RewriteStep, ...]
    level: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_edits", None)
        object.__setattr__(self, "_end", None)

    @classmethod
    def _from_edits(cls, start: PathTerm, edits: tuple[Edit, ...], end: PathTerm, lv: int) -> Derivation:
        d = object.__new__(cls)
        for name, value in (("start", start), ("level", lv), ("_edits", edits), ("_end", end)):
            object.__setattr__(d, name, value)
        return d

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the steps of edits not read before.
        # Once built they replace the edits, as if the steps were built by hand.
        if name != "steps" or self._edits is None:
            raise AttributeError(name)
        steps = []
        cur = self.start
        for rule, pos, direction, _, new in self._edits:
            after = replace_at(cur, pos, new)
            steps.append(RewriteStep(rule, pos, direction, cur, after, self.level))
            cur = after
        steps = tuple(steps)
        for name, value in (("steps", steps), ("_edits", None), ("_end", None)):
            object.__setattr__(self, name, value)
        return steps

    def __reduce__(self):  # copies and pickles hold the steps
        return Derivation, (self.start, self.steps, self.level)

    @property
    def end(self) -> PathTerm:
        if self._end is not None:
            return self._end
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
    """Apply ``rule`` at ``pos`` in ``t``; returns the contractum and the step.

    ``pos`` must be a tuple of child indices; anything else is a ``PathRwError``.
    """
    if type(pos) is not tuple:
        raise PathRwError(f"position must be a tuple of child indices, not {pos!r}")
    lv = level(t)
    schema = rs.find(rule, lv)
    binding = schema.match(subterm_at(t, pos))
    if binding is None:
        raise NoRedex(f"rule '{rule}' does not match at position {pos}")
    after = replace_at(t, pos, build_template(schema.rhs, binding, ctx))
    return after, RewriteStep(step_name(schema.name, lv), pos, FORWARD, t, after, lv)


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
    if d1._edits is not None and d2._edits is not None:
        return Derivation._from_edits(d1.start, d1._edits + d2._edits, d2.end, d1.level)
    return Derivation(d1.start, d1.steps + d2.steps, d1.level)


def invert_derivation(d: Derivation) -> Derivation:
    """The same witness read backwards; every step's direction flips (see ``RewriteStep.flipped``)."""
    if d._edits is None:
        return Derivation(d.end, tuple(step.flipped() for step in reversed(d.steps)), d.level)
    edits = tuple((rule, pos, _flipped(direction), new, old) for rule, pos, direction, old, new in reversed(d._edits))
    return Derivation._from_edits(d.end, edits, d.start, d.level)


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

    Replay returns False if the start is ill-formed (``endpoints`` raises) or
    not a path term. A derivation built by hand or read from a document is
    first reduced to edits (see ``Edit``): False at the first step that is not
    a ``RewriteStep``, does not link to the one before or is at another level,
    whose direction is neither forward nor reverse, or whose position is not a
    tuple of child indices on which ``before`` and ``after`` agree off the
    path. Then one zipper walks the edits from the start, resolving every
    rule at the start's level: False at the first edit whose position has no
    subterm or holds another one, whose rule is unknown or pinned to another
    level, or where the rule does not match or produces another subterm.
    """
    try:
        endpoints(d.start, ctx)
    except (PathRwError, TypeError):  # TypeError: not a path term
        return False
    edits = _edits_of(d) if d._edits is None else d._edits
    return edits is not None and _follow(d.start, edits, level(d.start), rs, ctx)


def _edits_of(d: Derivation) -> list[Edit] | None:
    """The edits of hand-built steps that link, or None."""
    edits = []
    cur = d.start
    for step in d.steps:
        if type(step) is not RewriteStep or step.level != d.level or step.before is not cur and step.before != cur:
            return None
        edit = _edit(step)
        if edit is None:
            return None
        edits.append(edit)
        cur = step.after
    return edits


def _edit(step: RewriteStep) -> Edit | None:
    """The step's edit: its position walked on both sides, which must agree off it; None if they do not."""
    pos = step.position
    if step.direction not in (FORWARD, REVERSE) or type(pos) is not tuple:
        return None
    old, new = step.before, step.after
    for i in pos:  # same class, same label, equal children off the path
        tp = type(old)
        if tp is not type(new) or type(i) is not int or i < 0:
            return None
        if tp is Trans and i < 2:
            off, off2 = (old.right, new.right) if i == 0 else (old.left, new.left)
            if off is not off2 and off != off2:
                return None
            old, new = (old.left, new.left) if i == 0 else (old.right, new.right)
        elif i == 0 and (
            tp is Sym
            or tp is Xi and old.var == new.var
            or tp is Mu and old.func == new.func
            or tp is Nu and old.arg == new.arg
        ):
            old, new = old.body, new.body
        else:
            return None
    return step.rule, pos, step.direction, old, new


def _replays(step: RewriteStep, rs: RuleSet, ctx: Context) -> bool:
    """Whether one hand-built step is a legal contraction where recorded; ``before`` is taken as well formed."""
    edit = _edit(step)
    return edit is not None and _legal(edit, level(step.before), rs, ctx)


def _legal(edit: Edit, lv: int, rs: RuleSet, ctx: Context) -> bool:
    """Whether the edit's rule, resolved at level ``lv``, relates its two subterms in its direction."""
    rule, _, direction, old, new = edit
    if direction == FORWARD:
        redex, contractum = old, new
    elif direction == REVERSE:
        redex, contractum = new, old
    else:
        return False
    try:
        schema = rs.find(rule, lv)
        binding = schema.match(redex)
        if binding is None:
            return False
        built = build_template(schema.rhs, binding, ctx)
    except (PathRwError, TypeError):  # TypeError: a non-term bound where endpoints are read
        return False
    return built is contractum or built == contractum


def _follow(t: PathTerm, edits, lv: int, rs: RuleSet, ctx: Context) -> bool:
    """Whether each edit in turn is ``_legal`` and has its old subterm where it says, moving a zipper over ``t``.

    The zipper is the focus, the subterm at position ``here``, and a stack of
    (node, child index, changed) per ancestor, whose node is current but for
    that child. It climbs to where the next edit's position leaves ``here``,
    rebuilding only ancestors with a changed child, and descends from there.
    """
    stack: list[tuple[PathTerm, int, bool]] = []
    here: Position = ()
    focus, changed = t, False
    for edit in edits:
        _, pos, _, old, new = edit
        if type(pos) is not tuple:
            return False
        if here[: len(pos)] == pos:
            k = len(pos)
        elif pos[: len(here)] == here:
            k = len(here)
        else:
            k = 0
            while here[k] == pos[k]:
                k += 1
        while len(stack) > k:
            node, i, up = stack.pop()
            if changed:
                focus = with_child(node, i, focus)
            else:
                focus, changed = node, up
        for i in pos[k:]:
            tp = type(focus)
            if type(i) is not int:
                return False
            if tp is Trans and (i == 0 or i == 1):
                child = focus.right if i else focus.left
            elif i == 0 and (tp is Sym or tp is Xi or tp is Mu or tp is Nu):
                child = focus.body
            else:
                return False
            stack.append((focus, i, changed))
            focus, changed = child, False
        here = pos
        if focus is not old and focus != old or not _legal(edit, lv, rs, ctx):
            return False
        focus, changed = new, True
    return True


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
    """Record the walker's contractions under ``walk_rs`` as edits replayable against ``replay_rs``."""
    lv = level(t)
    edits: list[Edit] = []
    walk = contractions(t, walk_rs, ctx, strategy)
    while True:
        try:
            schema, pos, redex, contractum = next(walk)
        except StopIteration as done:
            return Derivation._from_edits(t, tuple(edits), done.value, lv)
        if schema.witness and schema.name not in replay_rs._by_name:
            edits += _expand(schema, pos, redex, ctx, lv)
        else:
            edits.append((step_name(schema.name, lv), pos, FORWARD, redex, contractum))


def _expand(schema: RuleSchema, pos: Position, redex: PathTerm, ctx: Context, lv: int):
    """The edits of ``schema``'s seven-rule witness, at ``redex``, found at ``pos``."""
    binding = schema.match(redex)
    for rule, rel, direction, template in schema.witness:
        after = build_template(template, binding, ctx)
        yield step_name(rule, lv), pos + rel, direction, subterm_at(redex, rel), subterm_at(after, rel)
        redex = after
