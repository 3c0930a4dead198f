"""Path terms: the level-indexed language of rewrite reasons.

Level-1 terms are paths between declared elements, built from declared step
atoms, reflexivity, symmetry, transitivity, and the lambda congruence formers.
A level-(n+1) term is a path between level-n terms; its atoms are recorded
rewrite steps. Everything is immutable.

The term classes are final: nothing subclasses them. So the traversals on the
rewrite, replay and oracle paths dispatch on exact type (``type(t) is Trans``),
which costs a fraction of a class-pattern ``match`` case; cold code such as
``format_term`` and ``validate`` keeps ``match``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeAlias, Union

from .errors import (
    ContextError,
    EndpointMismatch,
    UnknownAtom,
    UnknownElement,
    UnresolvedLambda,
    PathRwError,
    fmt_position,
)
from .lam import Abs, App, LambdaTerm, Var, format_lambda

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


def size(t: PathTerm) -> int:
    """Node count of the expression tree."""
    match t:
        case Atom() | Refl() | StepAtom():
            return 1
        case Sym(body) | Xi(_, body) | Mu(_, body) | Nu(body, _):
            return 1 + size(body)
        case Trans(left, right):
            return 1 + size(left) + size(right)
    raise TypeError(f"not a path term: {t!r}")


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
        if i >= len(children):
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
        children = path_children(t)
        if not 0 <= i < len(children):
            raise PathRwError(f"no subterm at position {fmt_position(pos)}")
        spine.append(t)
        t = children[i]
    for node, i in zip(reversed(spine), reversed(pos)):
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


def _applied_lambda(name: str, ctx: Context, pos: Position) -> LambdaTerm:
    value = ctx.lambda_elements.get(name)
    if value is None:
        raise UnresolvedLambda(f"applied element '{name}' has no lambda value", pos)
    return value


def endpoints(t: PathTerm, ctx: Context, _pos: Position = ()) -> tuple[Object, Object]:
    """Source and target of a path term.

    Sym swaps, Trans chains, Refl duplicates; congruence formers build the
    corresponding lambda terms; a recorded step contributes its before/after
    terms one level down. Sym and Trans nodes fold on an explicit stack, so
    long chains do not recurse; a congruence former recurses into its body.
    """
    frames: list = []  # per Sym/Trans above t: [node, child index, left child's ends]
    while True:
        tp = type(t)
        if tp is Trans or tp is Sym:
            frames.append([t, 0, None])
            t = t.left if tp is Trans else t.body
            continue
        if tp is Atom:
            decl = ctx.atoms.get(t.name)
            if decl is None:
                raise UnknownAtom(t.name, _here(_pos, frames))
            ends = Object(0, decl.source), Object(0, decl.target)
        elif tp is Refl:
            obj = t.obj
            if obj.level == 0 and isinstance(obj.payload, str) and obj.payload not in ctx.elements:
                raise UnknownElement(obj.payload, _here(_pos, frames))
            ends = obj, obj
        elif tp is StepAtom:
            step = t.step
            ends = Object(step.level, step.before), Object(step.level, step.after)
        elif tp is Xi or tp is Mu or tp is Nu:
            ends = _former_endpoints(t, tp, ctx, _here(_pos, frames))
        else:
            raise TypeError(f"not a path term: {t!r}")
        # Fold the finished subtree into its ancestors, up to the first one
        # whose right child is still to walk.
        while frames:
            frame = frames[-1]
            node = frame[0]
            if type(node) is Sym:
                ends = ends[1], ends[0]
            elif frame[1] == 0:
                frame[1], frame[2] = 1, ends
                t = node.right
                break
            else:
                (lsrc, ltgt), (rsrc, rtgt) = frame[2], ends
                if ltgt != rsrc:
                    raise EndpointMismatch(_here(_pos, frames[:-1]), ltgt, rsrc)
                ends = lsrc, rtgt
            frames.pop()
        else:
            return ends


def _here(pos: Position, frames: list) -> Position:
    return pos + tuple([frame[1] for frame in frames])


def _former_endpoints(t: Xi | Mu | Nu, tp: type, ctx: Context, pos: Position) -> tuple[Object, Object]:
    f = None if tp is Xi else _applied_lambda(t.func if tp is Mu else t.arg, ctx, pos)
    src, tgt = endpoints(t.body, ctx, pos + (0,))
    m = _resolve_lambda(src, ctx, pos)
    m2 = _resolve_lambda(tgt, ctx, pos)
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

    def note(kind: str, pos: Position, message: str) -> None:
        violations.append(Violation(kind, pos, message))

    def go(t: PathTerm, pos: Position) -> tuple[Object, Object] | None:
        match t:
            case Atom(name):
                decl = ctx.atoms.get(name)
                if decl is None:
                    note("unknown-atom", pos, f"unknown atom '{name}'")
                    return None
                return Object(0, decl.source), Object(0, decl.target)
            case Refl(obj):
                if obj.level == 0:
                    if isinstance(obj.payload, str) and obj.payload not in ctx.elements:
                        note("unknown-element", pos, f"unknown element '{obj.payload}'")
                        return None
                elif isinstance(obj.payload, (Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom)):
                    if go(obj.payload, pos) is None:
                        return None
                    if level(obj.payload) != obj.level:
                        note("level-mismatch", pos, "object level disagrees with its payload")
                        return None
                else:
                    note("bad-object", pos, "object payload is not a path term")
                    return None
                return obj, obj
            case Sym(body):
                ends = go(body, pos + (0,))
                return (ends[1], ends[0]) if ends else None
            case Trans(left, right):
                lends = go(left, pos + (0,))
                rends = go(right, pos + (1,))
                if lends is None or rends is None:
                    return None
                if lends[1] != rends[0]:
                    note(
                        "endpoint-mismatch",
                        pos,
                        f"cannot chain: {format_object(lends[1])} != {format_object(rends[0])}",
                    )
                    return None
                return lends[0], rends[1]
            case Xi() | Mu() | Nu():
                try:
                    return endpoints(t, ctx, pos)
                except UnresolvedLambda as exc:
                    note("unresolved-lambda", exc.position, str(exc))
                except (UnknownAtom, UnknownElement, EndpointMismatch) as exc:
                    note("endpoint-error", exc.position, str(exc))
                return None
            case StepAtom(step):
                bends = go(step.before, pos)
                aends = go(step.after, pos)
                if bends is None or aends is None:
                    return None
                if bends != aends:
                    note("step-endpoints", pos, "recorded step does not preserve endpoints")
                    return None
                if level(step.before) != step.level:
                    note("level-mismatch", pos, "recorded step level disagrees with its terms")
                    return None
                return Object(step.level, step.before), Object(step.level, step.after)
        note("bad-term", pos, f"not a path term: {t!r}")
        return None

    go(t, ())
    return WellFormednessReport(tuple(violations))


def element_obj(name: str) -> Object:
    """Object wrapping a declared element."""
    return Object(0, name)


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


def format_term(t: PathTerm) -> str:
    """Render a term in the script expression syntax.

    Recorded steps have no script syntax; they render as a bracketed display
    form and do not round-trip through the parser.
    """
    match t:
        case Atom(name):
            return name
        case Refl(obj):
            return f"rho({format_object(obj)})"
        case Sym(body):
            return f"sigma({format_term(body)})"
        case Trans(left, right):
            return f"tau({format_term(left)}, {format_term(right)})"
        case Xi(var, body):
            return f"xi({var}, {format_term(body)})"
        case Mu(func, body):
            return f"mu({func}, {format_term(body)})"
        case Nu(body, arg):
            return f"nu({format_term(body)}, {arg})"
        case StepAtom(step):
            return f"step[{step.rule}@{fmt_position(step.position)}:{step.direction[0]}]"
    raise TypeError(f"not a path term: {t!r}")
