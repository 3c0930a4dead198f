"""Path terms: the level-indexed language of rewrite reasons.

Level-1 terms are paths between declared elements, built from declared step
atoms, reflexivity, symmetry, transitivity, and the lambda congruence formers.
A level-(n+1) term is a path between level-n terms; its atoms are recorded
rewrite steps. Everything is immutable.

The term classes are final: nothing subclasses them. So every traversal
dispatches on exact type (``type(t) is Trans``), which costs a fraction of a
class-pattern ``match`` case. No traversal recurses: ``endpoints`` and
``validate`` share one post-order fold on an explicit stack, and ``size``
and ``format_term`` walk pre-order on one, so terms of any depth work at the
default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, TypeAlias, Union

from .errors import (
    ContextError,
    EndpointMismatch,
    UnknownAtom,
    UnknownElement,
    UnresolvedLambda,
    PathRwError,
    fmt_position,
)
from .lam import Abs, App, LambdaTerm, Text, Var, format_lambda

if TYPE_CHECKING:
    from .engine import RewriteStep

Position: TypeAlias = "tuple[int, ...]"

AXIOM_TAGS = ("declared", "beta", "eta", "alpha")


@dataclass(frozen=True, slots=True)
class AtomDecl:
    """Declaration of a step atom: its endpoints, type, and optional axiom tag."""

    source: str
    target: str
    type_name: str
    tag: str = "declared"


@dataclass(frozen=True, slots=True)
class Context:
    """Declared base types, elements, lambda values, and step atoms."""

    base_types: tuple[str, ...] = ()
    elements: dict[str, str] = field(default_factory=dict)
    lambda_elements: dict[str, LambdaTerm] = field(default_factory=dict)
    atoms: dict[str, AtomDecl] = field(default_factory=dict)

    def check(self) -> None:
        """Raise ContextError unless all declaration invariants hold."""
        problems = []
        types = set(self.base_types)
        names = list(types) + list(self.elements) + list(self.atoms)
        if len(names) != len(set(names)):
            problems.append("type, element, and atom names must be pairwise distinct")
        for elem, type_name in self.elements.items():
            if type_name not in types:
                problems.append(f"element '{elem}' has undeclared type '{type_name}'")
        for name in self.lambda_elements:
            if name not in self.elements:
                problems.append(f"lambda value for undeclared element '{name}'")
        for name, decl in self.atoms.items():
            if decl.tag not in AXIOM_TAGS:
                problems.append(f"atom '{name}' has unknown tag '{decl.tag}'")
            for end in (decl.source, decl.target):
                if end not in self.elements:
                    problems.append(f"atom '{name}' endpoint '{end}' is not an element")
                elif self.elements[end] != decl.type_name:
                    problems.append(
                        f"atom '{name}' endpoint '{end}' is not of type '{decl.type_name}'"
                    )
        if problems:
            raise ContextError("; ".join(problems))


@dataclass(frozen=True, slots=True)
class Object:
    """An object of the level-(level+1) structure.

    Level 0 objects are declared elements (or raw lambda values arising as
    congruence-former endpoints); a level-n object wraps a level-n path term.
    """

    level: int
    payload: object  # str | LambdaTerm | PathTerm


@dataclass(frozen=True, slots=True)
class Atom:
    """A declared step atom; level 1 only."""

    name: str


@dataclass(frozen=True, slots=True)
class Refl:
    """The trivial path on an object."""

    obj: Object


@dataclass(frozen=True, slots=True)
class Sym:
    """The inverse of a path."""

    body: PathTerm


@dataclass(frozen=True, slots=True)
class Trans:
    """Sequential composition: ``left`` then ``right``."""

    left: PathTerm
    right: PathTerm


@dataclass(frozen=True, slots=True)
class Xi:
    """Congruence under an abstraction binding ``var``; level 1 only."""

    var: str
    body: PathTerm


@dataclass(frozen=True, slots=True)
class Mu:
    """Congruence in argument position: ``func`` applied to both endpoints."""

    func: str
    body: PathTerm


@dataclass(frozen=True, slots=True)
class Nu:
    """Congruence in function position: both endpoints applied to ``arg``."""

    body: PathTerm
    arg: str


@dataclass(frozen=True, slots=True)
class StepAtom:
    """A recorded rewrite step, used as an atom one level up."""

    step: "RewriteStep"


PathTerm: TypeAlias = Union[Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom]


def level(t: PathTerm) -> int:
    """Tower level of a term (1 for paths between elements), read off its leftmost leaf."""
    tp = type(t)
    while tp is Trans or tp is Sym:
        t = t.left if tp is Trans else t.body
        tp = type(t)
    if tp is Atom or tp is Xi or tp is Mu or tp is Nu:
        return 1
    if tp is Refl:
        return t.obj.level + 1
    if tp is StepAtom:
        return t.step.level + 1
    raise TypeError(f"not a path term: {t!r}")


def subterms(t: PathTerm) -> Iterator[PathTerm]:
    """Every node of the tree in pre-order, left to right; a non-term raises TypeError when reached."""
    stack = [t]
    while stack:
        t = stack.pop()
        tp = type(t)
        if tp is Trans:
            stack += (t.right, t.left)
        elif tp is Sym or tp is Xi or tp is Mu or tp is Nu:
            stack.append(t.body)
        elif tp is not Atom and tp is not Refl and tp is not StepAtom:
            raise TypeError(f"not a path term: {t!r}")
        yield t


def size(t: PathTerm) -> int:
    """Node count of the expression tree."""
    return sum(1 for _ in subterms(t))


def path_children(t: PathTerm) -> tuple[PathTerm, ...]:
    """Immediate rewritable children. Atoms, Refl, and recorded steps are leaves."""
    tp = type(t)
    if tp is Trans:
        return (t.left, t.right)
    if tp is Sym or tp is Xi or tp is Mu or tp is Nu:
        return (t.body,)
    return ()


def subterm_at(t: PathTerm, pos: Position) -> PathTerm:
    for i in pos:
        children = path_children(t)
        if type(i) is not int or not 0 <= i < len(children):
            raise PathRwError(f"no subterm at position {fmt_position(pos)}")
        t = children[i]
    return t


def with_child(t: PathTerm, i: int, child: PathTerm) -> PathTerm:
    """``t`` with its ``i``-th path child replaced by ``child``."""
    tp = type(t)
    if tp is Trans:
        if i == 0:
            return Trans(child, t.right)
        if i == 1:
            return Trans(t.left, child)
    elif i == 0:
        if tp is Sym:
            return Sym(child)
        if tp is Xi:
            return Xi(t.var, child)
        if tp is Mu:
            return Mu(t.func, child)
        if tp is Nu:
            return Nu(child, t.arg)
    raise PathRwError(f"no child {i} of {tp.__name__}")


def replace_at(t: PathTerm, pos: Position, new: PathTerm) -> PathTerm:
    """``t`` with the subterm at ``pos`` replaced: the spine above it is rebuilt."""
    spine = []
    for i in pos:
        spine.append(t)
        tp = type(t)
        if tp is Trans and (i == 0 or i == 1) and type(i) is int:
            t = t.right if i else t.left
        elif i == 0 and type(i) is int and (tp is Sym or tp is Xi or tp is Mu or tp is Nu):
            t = t.body
        else:
            raise PathRwError(f"no subterm at position {fmt_position(pos)}")
    for node, i in zip(reversed(spine), reversed(pos)):
        if type(node) is Trans:
            new = Trans(node.left, new) if i else Trans(new, node.right)
        else:
            new = with_child(node, i, new)
    return new


def _resolve_lambda(obj: Object, ctx: Context, pos: Position) -> LambdaTerm:
    if obj.level != 0:
        raise UnresolvedLambda("congruence former over a non-element object", pos)
    payload = obj.payload
    if isinstance(payload, str):
        value = ctx.lambda_elements.get(payload)
        if value is None:
            raise UnresolvedLambda(f"element '{payload}' has no lambda value", pos)
        return value
    return payload  # already a lambda term


def applied_lambda(t: Xi | Mu | Nu, ctx: Context, pos: Position = ()) -> LambdaTerm | None:
    """The lambda value a Mu or Nu applies to its endpoints (None for Xi)."""
    if type(t) is Xi:
        return None
    name = t.func if type(t) is Mu else t.arg
    value = ctx.lambda_elements.get(name)
    if value is None:
        raise UnresolvedLambda(f"applied element '{name}' has no lambda value", pos)
    return value


def endpoints(t: PathTerm, ctx: Context, _pos: Position = ()) -> tuple[Object, Object]:
    """Source and target of a path term; raises at the first ill-formed node.

    Sym swaps, Trans chains, Refl duplicates; congruence formers build the
    corresponding lambda terms; a recorded step contributes its before/after
    terms one level down.
    """
    return _fold(t, ctx, _pos, None)


# What an ill-formed subterm folds to in ``validate``: it meets nothing but
# itself, so its ancestors fail without reporting it twice.
_FAILED = object()
_NO_ENDS = (_FAILED, _FAILED)


def _fold(t: PathTerm, ctx: Context, pos: Position, violations: list | None) -> tuple:
    """The one post-order fold behind ``endpoints`` and ``validate``, on an explicit stack.

    With ``violations`` None it raises at the first error. Otherwise it notes
    each error and folds on, folds the terms inside level-n objects and
    recorded steps too, and checks a former by a raising fold of its own.
    """
    frames: list = []  # per node above t: [node, child index, left child's ends or former's lambda]
    while True:
        tp = type(t)
        if tp is Trans or tp is Sym:
            frames.append([t, 0, None])
            t = t.left if tp is Trans else t.body
            continue
        if tp is Atom:
            decl = ctx.atoms.get(t.name)
            if decl is not None:
                ends = Object(0, decl.source), Object(0, decl.target)
            elif violations is None:
                raise UnknownAtom(t.name, _here(pos, frames))
            else:
                ends = _note(violations, "unknown-atom", _here(pos, frames), f"unknown atom '{t.name}'")
        elif tp is Refl:
            obj = t.obj
            ends = obj, obj
            if obj.level == 0:
                if isinstance(obj.payload, str) and obj.payload not in ctx.elements:
                    if violations is None:
                        raise UnknownElement(obj.payload, _here(pos, frames))
                    message = f"unknown element '{obj.payload}'"
                    ends = _note(violations, "unknown-element", _here(pos, frames), message)
            elif violations is not None:
                if isinstance(obj.payload, (Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom)):
                    frames.append([t, 0, None])
                    t = obj.payload
                    continue
                message = "object payload is not a path term"
                ends = _note(violations, "bad-object", _here(pos, frames), message)
        elif tp is StepAtom:
            step = t.step
            if violations is not None:
                frames.append([t, 0, None])
                t = step.before
                continue
            ends = Object(step.level, step.before), Object(step.level, step.after)
        elif tp is Xi or tp is Mu or tp is Nu:
            if violations is None:
                try:
                    f = applied_lambda(t, ctx)
                except UnresolvedLambda:  # raise it again with its position, built only on error
                    f = applied_lambda(t, ctx, _here(pos, frames))
                frames.append([t, 0, f])
                t = t.body
                continue
            try:
                ends = _fold(t, ctx, _here(pos, frames), None)
            except UnresolvedLambda as exc:
                ends = _note(violations, "unresolved-lambda", exc.position, str(exc))
            except (UnknownAtom, UnknownElement, EndpointMismatch) as exc:
                ends = _note(violations, "endpoint-error", exc.position, str(exc))
        elif violations is None:
            raise TypeError(f"not a path term: {t!r}")
        else:
            ends = _note(violations, "bad-term", _here(pos, frames), f"not a path term: {t!r}")
        # Fold the finished subtree into its ancestors, up to the first one
        # with a child still to walk.
        while frames:
            frame = frames[-1]
            node = frame[0]
            tp = type(node)
            if tp is Sym:
                ends = ends[1], ends[0]
            elif tp is not Trans:
                if tp is StepAtom and frame[1] == 0:
                    frame[1], frame[2] = 1, ends
                    t = node.step.after
                    break
                ends = _close(frames, pos, ends, ctx, violations)
            elif frame[1] == 0:
                frame[1], frame[2] = 1, ends
                t = node.right
                break
            else:
                (lsrc, ltgt), (rsrc, rtgt) = frame[2], ends
                if ltgt == rsrc:
                    ends = lsrc, rtgt
                elif violations is None:
                    raise EndpointMismatch(_here(pos, frames[:-1]), ltgt, rsrc)
                elif ltgt is _FAILED or rsrc is _FAILED:
                    ends = _NO_ENDS
                else:
                    message = f"cannot chain: {format_object(ltgt)} != {format_object(rsrc)}"
                    ends = _note(violations, "endpoint-mismatch", _here(pos, frames[:-1]), message)
            frames.pop()
        else:
            return ends


def _here(pos: Position, frames: list) -> Position:
    """The position below ``frames``; the terms inside an object or a recorded step sit at its own."""
    return pos + tuple([f[1] for f in frames if type(f[0]) is not Refl and type(f[0]) is not StepAtom])


def _note(violations: list, kind: str, pos: Position, message: str) -> tuple:
    violations.append(Violation(kind, pos, message))
    return _NO_ENDS


def _close(frames: list, pos: Position, ends: tuple, ctx: Context, violations: list | None) -> tuple:
    """The ends of the former, or the Refl or step whose terms were folded, atop ``frames``.

    Its frame keeps a former's applied lambda, or the ends of a step's ``before``.
    """
    node, _, kept = frames[-1]
    tp = type(node)
    if tp is not Refl and tp is not StepAtom:
        try:
            return former_endpoints(node, kept, ends, ctx)
        except UnresolvedLambda:  # raise it again with its position, built only on error
            return former_endpoints(node, kept, ends, ctx, _here(pos, frames[:-1]))
    if ends[0] is _FAILED or tp is StepAtom and kept[0] is _FAILED:
        return _NO_ENDS
    if tp is Refl:
        if level(node.obj.payload) != node.obj.level:
            message = "object level disagrees with its payload"
            return _note(violations, "level-mismatch", _here(pos, frames[:-1]), message)
        return node.obj, node.obj
    step = node.step
    if kept != ends:
        message = "recorded step does not preserve endpoints"
        return _note(violations, "step-endpoints", _here(pos, frames[:-1]), message)
    if level(step.before) != step.level:
        message = "recorded step level disagrees with its terms"
        return _note(violations, "level-mismatch", _here(pos, frames[:-1]), message)
    return Object(step.level, step.before), Object(step.level, step.after)


def former_endpoints(
    t: Xi | Mu | Nu,
    f: LambdaTerm | None,
    body_ends: tuple[Object, Object],
    ctx: Context,
    pos: Position = (),
) -> tuple[Object, Object]:
    """A congruence former's endpoints, built from its body's without walking the body.

    ``f`` is the lambda value a Mu or Nu applies (None for Xi).
    """
    tp = type(t)
    m = _resolve_lambda(body_ends[0], ctx, pos)
    m2 = _resolve_lambda(body_ends[1], ctx, pos)
    if tp is Xi:
        return Object(0, Abs(t.var, m)), Object(0, Abs(t.var, m2))
    if tp is Mu:
        return Object(0, App(f, m)), Object(0, App(f, m2))
    return Object(0, App(m, f)), Object(0, App(m2, f))


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    position: Position
    message: str


@dataclass(frozen=True, slots=True)
class WellFormednessReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(t: PathTerm, ctx: Context) -> WellFormednessReport:
    """Collect every well-formedness violation with its tree position.

    Accepts exactly the terms on which ``endpoints`` succeeds, and additionally
    descends into recorded steps and object payloads, which ``endpoints``
    treats as opaque.
    """
    violations: list[Violation] = []
    _fold(t, ctx, (), violations)
    return WellFormednessReport(tuple(violations))


def path_obj(t: PathTerm) -> Object:
    """Object wrapping a path term, one level up."""
    return Object(level(t), t)


def format_object(obj: Object) -> str:
    payload = obj.payload
    if isinstance(payload, str):
        return payload
    if isinstance(payload, (Var, Abs, App)):
        return format_lambda(payload)
    return format_term(payload)


_CLOSE, _COMMA = Text(")"), Text(", ")


def format_term(t: PathTerm) -> str:
    """Render a term in the script expression syntax.

    Recorded steps have no script syntax; they render as a bracketed display
    form and do not round-trip through the parser. The walk is pre-order on
    an explicit stack, which also holds the text that closes each node.
    """
    out: list[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        tp = type(t)
        if tp is Text or tp is Atom:
            out.append(t if tp is Text else t.name)
        elif tp is Trans:
            out.append("tau(")
            todo += (_CLOSE, t.right, _COMMA, t.left)
        elif tp is Sym or tp is Xi or tp is Mu:
            out.append("sigma(" if tp is Sym else f"xi({t.var}, " if tp is Xi else f"mu({t.func}, ")
            todo += (_CLOSE, t.body)
        elif tp is Nu:
            out.append("nu(")
            todo += (Text(f", {t.arg})"), t.body)
        elif tp is Refl:
            if isinstance(t.obj.payload, (str, Var, Abs, App)):
                out.append(f"rho({format_object(t.obj)})")
            else:  # a path term one level down, or a non-term that raises when reached
                out.append("rho(")
                todo += (_CLOSE, t.obj.payload)
        elif tp is StepAtom:
            step = t.step
            out.append(f"step[{step.rule}@{fmt_position(step.position)}:{step.direction[0]}]")
        else:
            raise TypeError(f"not a path term: {t!r}")
    return "".join(out)
