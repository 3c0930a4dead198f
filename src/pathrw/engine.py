"""Contraction engine.

Executes single contractions, normalizes under a strategy, decides path
equality with an explicit replayable derivation witness, and lifts
derivations into path terms one level up.

Normalization records the contractions of the one walker,
``rules.contractions``, as edits: a derivation the engine builds holds its
start, its end and, per step, the rule, position and direction with the
subterms at that position before and after. No step rebuilds the term's
spine; the whole terms of each step are built when ``Derivation.steps`` is
first read, and cached beside the edits. Equality verdicts come from the
reduced-word oracle; the witness is built by the same walk, normalizing
both sides under the groupoid-complete rule set. When the requested rule
set lacks the extension rules, each extension contraction is expanded in
place into the edits of the seven-rule witness its schema carries, so the
witness always replays against the requested rules.

Replay moves the zipper of ``terms.move`` from edit to edit of a derivation
the engine built, whether its steps were read or not. Steps built by hand,
or read from a document, are checked one at a time: each must link to the
one before, and its edit must be a legal contraction.
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
    checked_level,
    endpoints,
    format_term,
    level,
    move,
    replace_at,
    subterm_at,
    value,
)
from .rules import FORWARD, GROUPOID_COMPLETE, REVERSE, STRATEGIES, RuleSchema, RuleSet, contractions, step_name
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


@value
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

    One built by hand, copied, pickled or read from a document holds its
    steps. One the engine builds keeps its start, its end and its edits (see
    ``Edit``) for life, and caches its steps beside them when first read.
    Either way the fields, ``==``, ``hash`` and ``repr`` are those of the steps.
    """

    __slots__ = ("start", "steps", "level", "_edits", "_end")
    start: PathTerm
    steps: tuple[RewriteStep, ...]
    level: int

    def __post_init__(self) -> None:
        _set_edits(self, None)
        _set_end(self, None)

    @classmethod
    def _from_edits(cls, start: PathTerm, edits: tuple[Edit, ...], end: PathTerm, lv: int) -> Derivation:
        d = object.__new__(cls)
        _set_start(d, start)
        _set_level(d, lv)
        _set_edits(d, edits)
        _set_end(d, end)
        return d

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the steps of edits not read before.
        # Once built they are cached beside the edits, which replay still follows.
        if name != "steps" or self._edits is None:
            raise AttributeError(name)
        steps = []
        cur = self.start
        for rule, pos, direction, _, new in self._edits:
            after = replace_at(cur, pos, new)
            steps.append(RewriteStep(rule, pos, direction, cur, after, self.level))
            cur = after
        steps = tuple(steps)
        _set_steps(self, steps)
        return steps

    def __reduce__(self):  # copies and pickles hold the steps
        return Derivation, (self.start, self.steps, self.level)

    @property
    def end(self) -> PathTerm:
        if self._end is not None:
            return self._end
        return self.steps[-1].after if self.steps else self.start


# Stores into Derivation's slots, past its frozen ``__setattr__``, as ``terms.value``'s ``__init__`` does.
_set_start, _set_steps, _set_level, _set_edits, _set_end = (
    Derivation.__dict__[name].__set__ for name in Derivation.__slots__
)


@value
class Equal:
    witness: Derivation


@value
class NotEqual:
    reason: str


def contract_once(
    t: PathTerm, rule: str, pos: Position, rs: RuleSet, ctx: Context
) -> tuple[PathTerm, RewriteStep]:
    """Apply ``rule`` at ``pos`` in ``t``; returns the contractum and the step.

    ``pos`` must be a tuple of child indices; anything else is a ``PathRwError``.
    An object below level 0 at the leftmost leaf is a ``BadObject``.
    """
    if type(pos) is not tuple:
        raise PathRwError(f"position must be a tuple of child indices, not {pos!r}")
    lv = checked_level(t)
    schema = rs.find(rule, lv)
    built = schema.contract(subterm_at(t, pos), ctx)
    if built is None:
        raise NoRedex(f"rule '{rule}' does not match", pos)
    after = replace_at(t, pos, built)
    return after, RewriteStep(step_name(schema.name, lv), pos, FORWARD, t, after, lv)


def normalize(
    t: PathTerm, rs: RuleSet, ctx: Context, strategy: str = STRATEGIES[0]
) -> tuple[PathTerm, Derivation]:
    """Contract the first redex under ``strategy`` until none remains.

    ``t`` must be well formed: ``endpoints`` checks it once, on entry.
    """
    endpoints(t, ctx)
    d = _record(t, rs, ctx, strategy, rs)
    return d.end, d


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


def _compose_lifted(pieces: list[PathTerm], lv: int, start: PathTerm) -> PathTerm:
    """Lifted steps as one level-(lv+1) path from ``start``: left-nested, or its trivial path if none."""
    return functools.reduce(Trans, pieces) if pieces else Refl(Object(lv, start))


def derivation_to_path(d: Derivation) -> PathTerm:
    """Lift a level-n derivation into a level-(n+1) path term.

    The empty derivation lifts to the trivial path on its start; a forward
    step becomes a step atom, a reverse step the inverse of the flipped
    step's atom; several steps fold into a left-nested composition.
    """
    pieces = [StepAtom(s) if s.direction == FORWARD else Sym(StepAtom(s.flipped())) for s in d.steps]
    return _compose_lifted(pieces, d.level, d.start)


def replay_derivation(d: Derivation, rs: RuleSet, ctx: Context) -> bool:
    """True iff every step is a legal contraction where recorded and the chain links.

    Replay returns False if the start is ill-formed (``endpoints`` raises),
    not a path term or not at the derivation's level, and resolves every rule
    at the start's level. Steps built by hand, or read from a document, are
    checked one at a time: False if they are no tuple, and at the first that
    is not a ``RewriteStep``, does not link to the one before or is at another
    level, whose direction is neither forward nor reverse, whose position is
    not a tuple of child indices on which ``before`` and ``after`` agree off
    the path, or whose edit (see ``Edit``) is not ``_legal``. The edits of a
    derivation the engine built are followed by a zipper from the start
    instead (see ``_follow``).
    """
    try:
        endpoints(d.start, ctx)
    except (PathRwError, TypeError):  # TypeError: not a path term
        return False
    lv = level(d.start)
    if d._edits is not None:  # the engine built it at its start's level
        return _follow(d.start, d._edits, lv, rs, ctx)
    if lv != d.level or type(d.steps) is not tuple:
        return False
    cur = d.start
    for step in d.steps:
        if type(step) is not RewriteStep or step.level != d.level or step.before is not cur and step.before != cur:
            return False
        edit = _edit(step)
        if edit is None or not _legal(edit, lv, rs, ctx):
            return False
        cur = step.after
    return True


def _edit(step: RewriteStep) -> Edit | None:
    """The step's edit: its position walked on both sides, which must agree off it; None if they do not."""
    pos = step.position
    if type(pos) is not tuple:
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
        built = rs.find(rule, lv).contract(redex, ctx)
    except (PathRwError, TypeError):  # TypeError: a non-term bound where endpoints are read
        return False
    return built is not None and (built is contractum or built == contractum)


def _follow(t: PathTerm, edits: tuple[Edit, ...], lv: int, rs: RuleSet, ctx: Context) -> bool:
    """Whether each of the engine's edits in turn is ``_legal`` and has its old subterm where it says.

    A zipper moves over ``t`` (see ``terms.move``): before each edit it climbs
    to the longest prefix the edit's position shares with the one before.
    """
    stack: list[PathTerm] = []
    here: Position = ()
    focus = t
    for edit in edits:
        _, pos, _, old, new = edit
        if here[: len(pos)] == pos:
            k = len(pos)
        elif pos[: len(here)] == here:
            k = len(here)
        else:
            k = 0
            while here[k] == pos[k]:
                k += 1
        focus = move(stack, focus, here, pos, k)
        if focus is not old and focus != old or not _legal(edit, lv, rs, ctx):
            return False
        focus, here = new, pos
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
    ds = _record(s, GROUPOID_COMPLETE, ctx, STRATEGIES[0], rs)  # both sides checked by their words
    dt = _record(t, GROUPOID_COMPLETE, ctx, STRATEGIES[0], rs)
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
    return _record(t, GROUPOID_COMPLETE, ctx, STRATEGIES[0], rs)


def _record(
    t: PathTerm, walk_rs: RuleSet, ctx: Context, strategy: str, replay_rs: RuleSet
) -> Derivation:
    """Record the walker's contractions under ``walk_rs`` as edits replayable against ``replay_rs``."""
    lv = level(t)
    end, fired = contractions(t, walk_rs, ctx, strategy)
    edits: list[Edit] = []
    for schema, pos, redex, contractum in fired:
        if schema.witness and schema.name not in replay_rs._by_name:
            edits += _expand(schema, pos, redex, ctx, lv)
        else:
            edits.append((step_name(schema.name, lv), pos, FORWARD, redex, contractum))
    return Derivation._from_edits(t, tuple(edits), end, lv)


def _expand(schema: RuleSchema, pos: Position, redex: PathTerm, ctx: Context, lv: int) -> list[Edit]:
    """The edits of ``schema``'s seven-rule witness, at ``redex``, found at ``pos``."""
    afters = schema.derive(schema.match(redex), ctx)
    return [
        (step_name(rule, lv), pos + rel, direction, subterm_at(before, rel), subterm_at(after, rel))
        for (rule, rel, direction, _), before, after in zip(schema.witness, [redex, *afters], afters)
    ]
