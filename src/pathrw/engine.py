"""Contraction engine.

Executes single contractions, normalizes under a strategy, decides path
equality with an explicit replayable derivation witness, and lifts
derivations into path terms one level up.

Normalization records the contractions of the one walker,
``rules.contractions``. Equality verdicts come from the reduced-word oracle;
the witness is built by the same walk, normalizing both sides under the
groupoid-complete rule set. When the requested rule set lacks the extension
rules, each extension contraction is expanded in place into its derivable
sequence of seven-rule forward/reverse steps, so the witness always replays
against the requested rules. A bounded bidirectional search over the
contraction graph is kept for oracle-free operation; only that mode can
answer Unknown.
"""

from __future__ import annotations

import functools
from collections import deque
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
    level,
    path_children,
    postorder_positions,
    replace_at,
    size,
    subterm_at,
)
from .rules import (
    GROUPOID_COMPLETE,
    RuleSchema,
    RuleSet,
    build_template,
    contractions,
    match_redexes,
)

FORWARD = "forward"
REVERSE = "reverse"


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


@dataclass(frozen=True, slots=True)
class Unknown:
    explored: int = 0


def contract_once(
    t: PathTerm, rule: str, pos: Position, rs: RuleSet, ctx: Context
) -> tuple[PathTerm, RewriteStep]:
    """Apply ``rule`` at ``pos`` in ``t``; returns the contractum and the step."""
    lv = level(t)
    schema = rs.find(rule, lv)
    sub = subterm_at(t, pos)
    binding = schema.match(sub)
    if binding is None:
        raise NoRedex(f"rule '{rule}' does not match at position {pos}")
    new_sub = build_template(schema.rhs, binding, ctx)
    after = replace_at(t, pos, new_sub)
    step = RewriteStep(schema.display_name, pos, FORWARD, t, after, lv)
    return after, step


def normalize(
    t: PathTerm, rs: RuleSet, ctx: Context, strategy: str = "leftmost-innermost"
) -> tuple[PathTerm, Derivation]:
    """Contract the first redex under ``strategy`` until none remains."""
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
            out, _ = contract_once(redex_side, step.rule, step.position, rs, ctx)
        except PathRwError:
            return False
        if out != produced:
            return False
        cur = step.after
    return True


def decide_rw_equal(
    s: PathTerm,
    t: PathTerm,
    rs: RuleSet,
    ctx: Context,
    bound: int = 20,
    use_oracle: bool = True,
) -> Equal | NotEqual | Unknown:
    """Decide whether two same-level terms are connected by contractions.

    With the oracle enabled (the default) the verdict is exact and an Equal
    result always carries a replayable witness over ``rs``; ``bound`` then
    only limits the oracle-free fallback search, which may answer Unknown.
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
    if not use_oracle:
        return _search_equal(s, t, rs, ctx, bound)
    if word(s, ctx) != word(t, ctx):
        return NotEqual("reduced words differ")
    ds = canonical_derivation(s, rs, ctx)
    dt = canonical_derivation(t, rs, ctx)
    if ds.end != dt.end:
        # Canonical forms disagreeing would mean the extended rule set failed
        # to confluence on this input; report honestly rather than guess.
        return Unknown()
    return Equal(concat_derivations(ds, invert_derivation(dt)))


def canonical_derivation(t: PathTerm, rs: RuleSet, ctx: Context) -> Derivation:
    """Derivation from ``t`` to its canonical form, replayable against ``rs``.

    Normalizes under the groupoid-complete set; when ``rs`` lacks an extension
    rule that fires, the contraction is replaced in place by its derivable
    seven-rule step sequence.
    """
    return _record(t, GROUPOID_COMPLETE, ctx, "leftmost-innermost", rs)


def _record(
    t: PathTerm, walk_rs: RuleSet, ctx: Context, strategy: str, replay_rs: RuleSet
) -> Derivation:
    """Record the walker's contractions under ``walk_rs`` as steps replayable against ``replay_rs``."""
    available = {schema.name for schema in replay_rs.schemas}
    lv = level(t)
    steps: list[RewriteStep] = []
    for schema, pos, before, after in contractions(t, walk_rs, ctx, strategy):
        if schema.extension and schema.name not in available:
            steps.extend(_simulate_extension(before, schema, pos, ctx))
        else:
            steps.append(RewriteStep(schema.display_name, pos, FORWARD, before, after, lv))
    return Derivation(t, tuple(steps), lv)


def _suffixed(name: str, lv: int) -> str:
    return name if lv == 1 else f"{name}{lv}"


def _simulate_extension(
    cur: PathTerm, schema: RuleSchema, pos: Position, ctx: Context
) -> list[RewriteStep]:
    """Expand one extension contraction into seven-rule forward/reverse steps."""
    lv = level(cur)
    steps: list[RewriteStep] = []

    def emit(rule: str, at: Position, direction: str, after: PathTerm) -> PathTerm:
        nonlocal cur
        steps.append(RewriteStep(_suffixed(rule, lv), at, direction, cur, after, lv))
        cur = after
        return cur

    sub = subterm_at(cur, pos)
    if schema.name == "st":
        # sigma(tau(r, s))  ~>  tau(sigma(s), sigma(r))
        r, s = sub.body.left, sub.body.right
        x = endpoints(r, ctx)[0]
        y = endpoints(s, ctx)[0]
        z = endpoints(s, ctx)[1]
        emit("tlr", pos, REVERSE, replace_at(cur, pos, Trans(Refl(z), sub)))
        emit("tsr", pos + (0,), REVERSE, replace_at(cur, pos + (0,), Trans(Sym(s), s)))
        emit("tt", pos, FORWARD, replace_at(cur, pos, Trans(Sym(s), Trans(s, sub))))
        emit(
            "tlr",
            pos + (1,),
            REVERSE,
            replace_at(cur, pos + (1,), Trans(Refl(y), Trans(s, sub))),
        )
        emit("tsr", pos + (1, 0), REVERSE, replace_at(cur, pos + (1, 0), Trans(Sym(r), r)))
        emit(
            "tt",
            pos + (1,),
            FORWARD,
            replace_at(cur, pos + (1,), Trans(Sym(r), Trans(r, Trans(s, sub)))),
        )
        emit(
            "tt",
            pos + (1, 1),
            REVERSE,
            replace_at(cur, pos + (1, 1), Trans(Trans(r, s), sub)),
        )
        emit("tr", pos + (1, 1), FORWARD, replace_at(cur, pos + (1, 1), Refl(x)))
        emit("trr", pos + (1,), FORWARD, replace_at(cur, pos + (1,), Sym(r)))
        return steps
    if schema.name == "trc":
        # tau(r, tau(sigma(r), t))  ~>  t
        r = sub.left
        t2 = sub.right.right
        x = endpoints(r, ctx)[0]
        emit("tt", pos, REVERSE, replace_at(cur, pos, Trans(Trans(r, Sym(r)), t2)))
        emit("tr", pos + (0,), FORWARD, replace_at(cur, pos + (0,), Refl(x)))
        emit("tlr", pos, FORWARD, replace_at(cur, pos, t2))
        return steps
    if schema.name == "tsrc":
        # tau(sigma(r), tau(r, t))  ~>  t
        r = sub.right.left
        t2 = sub.right.right
        y = endpoints(r, ctx)[1]
        emit("tt", pos, REVERSE, replace_at(cur, pos, Trans(Trans(Sym(r), r), t2)))
        emit("tsr", pos + (0,), FORWARD, replace_at(cur, pos + (0,), Refl(y)))
        emit("tlr", pos, FORWARD, replace_at(cur, pos, t2))
        return steps
    raise PathRwError(f"no simulation for extension rule '{schema.name}'")


def _search_equal(
    s: PathTerm, t: PathTerm, rs: RuleSet, ctx: Context, bound: int
) -> Equal | Unknown:
    """Bounded bidirectional search over contractions and finite expansions.

    Best effort: sound but incomplete. Expansion candidates for inverse
    cancellation pairs are drawn from the subterms of the two endpoints, and
    intermediate terms are capped at size(s) + size(t) + bound.
    """
    lv = level(s)
    size_cap = size(s) + size(t) + bound
    pool = _subterm_pool(s) | _subterm_pool(t)

    # parents: term -> (previous term, step taking previous to term)
    sides = (
        {s: None},
        {t: None},
    )
    frontiers = (deque([s]), deque([t]))
    explored = 0

    def neighbours(u: PathTerm):
        for rule, pos in match_redexes(rs, u):
            schema = rs.find(rule, lv)
            binding = schema.match(subterm_at(u, pos))
            after = replace_at(u, pos, build_template(schema.rhs, binding, ctx))
            yield after, RewriteStep(schema.display_name, pos, FORWARD, u, after, lv)
        for after, step in _expansions(u, lv, ctx, pool, size_cap):
            yield after, step

    def witness(meeting: PathTerm) -> Derivation:
        left: list[RewriteStep] = []
        node = meeting
        while sides[0][node] is not None:
            prev, step = sides[0][node]
            left.append(step)
            node = prev
        left.reverse()
        right: list[RewriteStep] = []
        node = meeting
        while sides[1][node] is not None:
            prev, step = sides[1][node]
            right.append(step)
            node = prev
        flipped = tuple(step.flipped() for step in right)
        return Derivation(s, tuple(left) + flipped, lv)

    for _depth in range(bound):
        for side in (0, 1):
            frontier = frontiers[side]
            next_frontier: deque[PathTerm] = deque()
            while frontier:
                u = frontier.popleft()
                for v, step in neighbours(u):
                    if v in sides[side]:
                        continue
                    sides[side][v] = (u, step)
                    explored += 1
                    if v in sides[1 - side]:
                        return Equal(witness(v))
                    next_frontier.append(v)
            frontiers = (frontiers[0], next_frontier) if side else (next_frontier, frontiers[1])
    return Unknown(explored)


def _subterm_pool(t: PathTerm) -> set[PathTerm]:
    pool = {t}
    stack = [t]
    while stack:
        node = stack.pop()
        for child in path_children(node):
            if child not in pool:
                pool.add(child)
                stack.append(child)
    return pool


def _expansions(u: PathTerm, lv: int, ctx: Context, pool: set[PathTerm], size_cap: int):
    """Reverse contractions of bounded size: each yielded step is reverse."""

    def rev(rule: str, pos: Position, after: PathTerm):
        return after, RewriteStep(_suffixed(rule, lv), pos, REVERSE, u, after, lv)

    base_size = size(u)
    for pos in postorder_positions(u):
        sub = subterm_at(u, pos)
        if base_size + 2 <= size_cap:
            yield rev("ss", pos, replace_at(u, pos, Sym(Sym(sub))))
            src, tgt = endpoints(sub, ctx)
            yield rev("tlr", pos, replace_at(u, pos, Trans(Refl(src), sub)))
            yield rev("trr", pos, replace_at(u, pos, Trans(sub, Refl(tgt))))
        if isinstance(sub, Refl):
            if base_size + 1 <= size_cap:
                yield rev("sr", pos, replace_at(u, pos, Sym(Refl(sub.obj))))
            for w in pool:
                extra = 2 * size(w) + 1
                if base_size - 1 + extra > size_cap:
                    continue
                wsrc, wtgt = endpoints(w, ctx)
                if wsrc == sub.obj:
                    yield rev("tr", pos, replace_at(u, pos, Trans(w, Sym(w))))
                if wtgt == sub.obj:
                    yield rev("tsr", pos, replace_at(u, pos, Trans(Sym(w), w)))
        if isinstance(sub, Trans) and isinstance(sub.right, Trans):
            yield rev(
                "tt", pos, replace_at(u, pos, Trans(Trans(sub.left, sub.right.left), sub.right.right))
            )
