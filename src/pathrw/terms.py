"""Path terms: the level-indexed language of rewrite reasons.

Level-1 terms are paths between declared elements, built from declared step
atoms, reflexivity, symmetry, transitivity, and the lambda congruence formers.
A level-(n+1) term is a path between level-n terms; its atoms are recorded
rewrite steps. Everything is immutable. A rewrite mostly builds small
values, so the classes built on the hot path (the terms here, the oracle's
letters and words, the engine's steps and verdicts) are declared with
``value``: a frozen, slotted dataclass whose ``__init__`` stores each field
through its slot descriptor. The rest (declarations, contexts, patterns,
reports) are plain frozen dataclasses.

The term classes are final: nothing subclasses them. So every traversal
dispatches on exact type (``type(t) is Trans``), which costs a fraction of a
class-pattern ``match`` case. No traversal recurses, each walks an explicit
stack: ``endpoints`` takes leaves in path order and hands formers and errors
to the post-order fold behind ``validate``, and ``mu_measure`` (whose first
component is ``size``) and ``format_term`` walk pre-order; so terms of any
depth work at the default recursion limit.
Positions are walked by the zipper of ``move``: ``subterm_at``, ``replace_at``
and the engine's replay of edits call it. One walk is apart: replay of a
hand-built step (``engine._edit``) walks its two sides in lockstep and
compares only the children off the path, mostly by ``is``. Rebuilding the
before side on ``move`` and comparing it whole with the after side made the
full-step copy of a 2,000-deep ``sigma`` nest replay in 2.4 s, against
0.13 s (best of 3, 2-core x86-64, Python 3.11).
"""

from __future__ import annotations

import functools
import gc
import inspect
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, TypeAlias, Union

from .errors import (
    BadObject,
    BadStep,
    ContextError,
    EndpointMismatch,
    NotAnObject,
    PositionedError,
    UnknownAtom,
    UnknownElement,
    UnresolvedLambda,
    PathRwError,
    fmt_position,
)
from .lam import Abs, App, LambdaTerm, Text, Var, format_lambda, validate_axiom_atom

if TYPE_CHECKING:
    from .engine import RewriteStep

Position: TypeAlias = "tuple[int, ...]"

AXIOM_TAGS = ("declared", "beta", "eta", "alpha")


def value(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)``, with an ``__init__`` that stores through the slots.

    The rewrite engine builds its terms, steps and letters by the million,
    and the dataclass ``__init__`` stores each field by ``object.__setattr__``,
    which looks the attribute up again on every call. The ``__init__``
    generated here calls each field's slot descriptor, ``__set__`` bound once
    when the class is built. All else is the dataclass's: ``__setattr__`` and
    ``__delattr__`` raise ``FrozenInstanceError``, and ``==``, ``hash``,
    ``repr``, ``__match_args__``, ``fields``, ``replace``, pickling and copying
    are unchanged. So that no behaviour is dropped without a sign, a class
    whose dataclass ``__init__`` would do more than store its arguments in
    order is a ``TypeError``: one with a default, a default factory, an
    ``init=False``, keyword-only or ``InitVar`` field, or a ``__post_init__``.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    expected = [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty) for name in names]
    if hasattr(cls, "__post_init__") or [(p.name, p.kind, p.default) for p in params] != expected:
        raise TypeError(f"@value class {cls.__name__} must have only required fields and no __post_init__")
    namespace = {f"__set_{name}__": cls.__dict__[name].__set__ for name in names}
    source = f"def __init__(self, {', '.join(names)}):\n"
    source += "".join(f"    __set_{name}__(self, {name})\n" for name in names)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


def gc_paused(fn: Callable) -> Callable:
    """Run each call of ``fn``, a whole job, with the cyclic garbage collector paused unless it already is.
    The pause is process-wide: other threads' cycles wait until the job returns. Generators are refused."""
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"@gc_paused cannot wrap the generator function {fn.__qualname__}")

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@dataclass(frozen=True, slots=True)
class AtomDecl:
    """Declaration of a step atom: its endpoints, type and optional axiom tag.

    Derived, outside ``==``, ``hash`` and ``repr``: ``ends`` holds the endpoints
    as objects; ``letters`` maps a name the atom is declared under to its
    forward and inverse ``oracle.Letter`` over an ``Atom`` of that name, stored
    once by ``oracle.word`` (``setdefault``), which cancels them by identity.
    A copy or a pickle derives both afresh: it starts with empty ``letters``.
    """

    source: str
    target: str
    type_name: str
    tag: str = "declared"
    ends: tuple[Object, Object] = field(init=False, repr=False, compare=False)
    letters: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ends", (Object(0, self.source), Object(0, self.target)))
        object.__setattr__(self, "letters", {})

    def __reduce__(self):  # copies and pickles build the derived fields again: their own ends, no letters yet
        return AtomDecl, (self.source, self.target, self.type_name, self.tag)


@dataclass(frozen=True, slots=True)
class Context:
    """Declared base types, elements, lambda values, and step atoms."""

    base_types: tuple[str, ...] = ()
    elements: dict[str, str] = field(default_factory=dict)
    lambda_elements: dict[str, LambdaTerm] = field(default_factory=dict)
    atoms: dict[str, AtomDecl] = field(default_factory=dict)

    def check(self) -> None:
        """Raise ContextError unless all declaration invariants hold; once they do,
        NotAnAxiomInstance for a tagged atom whose lambda ends do not fit its tag."""
        problems = []
        types = set(self.base_types)
        names = [*self.base_types, *self.elements, *self.atoms]
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
        for decl in self.atoms.values():
            validate_axiom_atom(decl, self)


@value
class Object:
    """An object of the level-(level+1) structure.

    Level 0 objects are declared elements (or raw lambda values arising as
    congruence-former endpoints); a level-n object wraps a level-n path term.
    """

    level: int
    payload: object  # str | LambdaTerm | PathTerm


@value
class Atom:
    """A declared step atom; level 1 only."""

    name: str


@value
class Refl:
    """The trivial path on an object."""

    obj: Object


@value
class Sym:
    """The inverse of a path."""

    body: PathTerm


@value
class Trans:
    """Sequential composition: ``left`` then ``right``."""

    left: PathTerm
    right: PathTerm


@value
class Xi:
    """Congruence under an abstraction binding ``var``; level 1 only."""

    var: str
    body: PathTerm


@value
class Mu:
    """Congruence in argument position: ``func`` applied to both endpoints."""

    func: str
    body: PathTerm


@value
class Nu:
    """Congruence in function position: both endpoints applied to ``arg``."""

    body: PathTerm
    arg: str


@value
class StepAtom:
    """A recorded rewrite step, used as an atom one level up."""

    step: "RewriteStep"


PathTerm: TypeAlias = Union[Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom]


def level(t: PathTerm) -> int:
    """Tower level of a term (1 for paths between elements), read off its leftmost leaf."""
    root, tp = t, type(t)
    while tp is Trans or tp is Sym:
        t = t.left if tp is Trans else t.body
        tp = type(t)
    if tp is Atom or tp is Xi or tp is Mu or tp is Nu:
        return 1
    if tp is Refl and type(t.obj) is Object:
        return t.obj.level + 1
    if tp is StepAtom and hasattr(t.step, "level"):
        return t.step.level + 1
    raise _bad_leaf(t, _leftmost(root))


def checked_level(t: PathTerm) -> int:
    """``level(t)``, which must be 1 or more: else the ``BadObject`` that ``endpoints`` raises at the leftmost leaf."""
    lv = level(t)
    if lv < 1:
        raise BadObject(lv - 1, _leftmost(t))
    return lv


def _leftmost(t: PathTerm) -> Position:
    """The position of the leftmost leaf of ``t``."""
    depth = 0
    while type(t) is Trans or type(t) is Sym:
        t = t.left if type(t) is Trans else t.body
        depth += 1
    return (0,) * depth


def _bad_leaf(t: object, position: Position) -> Exception:
    """What a walk raises at a leaf it cannot take: a StepAtom around no step, a Refl around no object, a non-term."""
    if type(t) is StepAtom:
        return BadStep(f"not a rewrite step: {t.step!r}", position)
    return NotAnObject(f"not an object: {t.obj!r}", position) if type(t) is Refl else TypeError(f"not a path term: {t!r}")


def _position_of(root: PathTerm, node: PathTerm) -> Position:
    """The position of ``node``'s first pre-order occurrence in ``root``; a term inside an object sits at its Refl's."""
    todo = [(root, ())]
    while True:
        t, pos = todo.pop()
        tp = type(t)
        if t is node:
            return pos
        if tp is Trans:
            todo += ((t.right, pos + (1,)), (t.left, pos + (0,)))
        elif tp is Sym or tp is Xi or tp is Mu or tp is Nu or tp is Refl:
            todo.append((t.obj.payload, pos) if tp is Refl else (t.body, pos + (0,)))


def mu_measure(t: PathTerm) -> tuple[int, int]:
    """Termination measure: (node count, total size of left factors of compositions).

    One pre-order walk counts both: a node counts once per composition whose left factor holds it. A
    Refl or StepAtom is one leaf, read no further; a non-term raises TypeError when reached.
    """
    count = weight = 0
    stack = [(t, 0)]
    while stack:
        node, lefts = stack.pop()
        tp = type(node)
        if tp is Trans:
            stack += ((node.right, lefts), (node.left, lefts + 1))
        elif tp is Sym or tp is Xi or tp is Mu or tp is Nu:
            stack.append((node.body, lefts))
        elif tp is not Atom and tp is not Refl and tp is not StepAtom:
            raise TypeError(f"not a path term: {node!r}")
        count += 1
        weight += lefts
    return count, weight


def size(t: PathTerm) -> int:
    """Node count of the expression tree: ``mu_measure``'s first component."""
    return mu_measure(t)[0]


def subterm_at(t: PathTerm, pos: Position) -> PathTerm:
    return move([], t, (), pos, 0)


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
    stack: list[PathTerm] = []
    move(stack, t, (), pos, 0)
    return move(stack, new, pos, (), 0)


def move(stack: list, focus: PathTerm, here: Position, pos: Position, k: int) -> PathTerm:
    """Move a zipper's focus from ``here`` to ``pos``; returns the subterm there.

    The zipper (Huet, "The Zipper", JFP 1997) is ``focus``, the subterm at
    ``here``, and ``stack``, its ancestors from the root down, each current but
    for its child on ``here``. The focus climbs to depth ``k``, the length of a
    prefix that ``here`` and ``pos`` share, rebuilding every ancestor it
    leaves; callers climb only from a focus they replaced, so no unchanged
    node is rebuilt. Then it descends along ``pos[k:]``, pushing the nodes it
    passes, and raises ``PositionedError`` where ``pos`` names no subterm.
    """
    depth = len(stack)  # of the focus
    while depth > k:
        depth -= 1
        node = stack.pop()
        i = here[depth]
        if type(node) is Trans:
            focus = Trans(node.left, focus) if i else Trans(focus, node.right)
        else:
            focus = with_child(node, i, focus)
    for i in pos[k:]:
        stack.append(focus)
        tp = type(focus)
        if tp is Trans and (i == 0 or i == 1) and type(i) is int:
            focus = focus.right if i else focus.left
        elif i == 0 and type(i) is int and (tp is Sym or tp is Xi or tp is Mu or tp is Nu):
            focus = focus.body
        else:
            raise PositionedError("no subterm", pos)
    return focus


def _resolve_lambda(obj: Object, ctx: Context) -> LambdaTerm:
    if obj.level != 0:
        raise UnresolvedLambda("congruence former over a non-element object")
    payload = obj.payload
    if isinstance(payload, str):
        value = ctx.lambda_elements.get(payload)
        if value is None:
            raise UnresolvedLambda(f"element '{payload}' has no lambda value")
        return value
    return payload  # already a lambda term


def applied_lambda(t: Xi | Mu | Nu, ctx: Context) -> LambdaTerm | None:
    """The lambda value a Mu or Nu applies to its endpoints (None for Xi)."""
    if type(t) is Xi:
        return None
    name = t.func if type(t) is Mu else t.arg
    value = ctx.lambda_elements.get(name)
    if value is None:
        raise UnresolvedLambda(f"applied element '{name}' has no lambda value")
    return value


def endpoints(t: PathTerm, ctx: Context) -> tuple[Object, Object]:
    """Source and target of a path term; raises at the first ill-formed node.

    Sym swaps, Trans chains, Refl duplicates; congruence formers build the
    corresponding lambda terms; a recorded step contributes its before/after
    terms one level down; an atom's ends are its declaration's.

    One walk, as ``oracle.word``'s, takes the leaves in path order with their
    polarity; each leaf's oriented source must be the last one's target, which
    checks every Trans, the one where two leaves adjacent in path order meet.
    A former, a non-term, an unknown name, a chain break or an error sends the
    term to ``_fold``, and this raises the first error the fold notes.
    """
    root, atoms, todo, pol, last = t, ctx.atoms, [], True, None
    try:
        while True:
            tp = type(t)
            if tp is Trans:
                todo.append((t.right, True) if pol else (t.left, False))
                t = t.left if pol else t.right
                continue
            if tp is Sym:
                t, pol = t.body, not pol
                continue
            if tp is Atom:
                src, tgt = atoms[t.name].ends
            elif tp is Refl:
                src = tgt = t.obj
                if src.level < 0 or src.level == 0 and isinstance(src.payload, str) and src.payload not in ctx.elements:
                    break
            elif tp is StepAtom:
                step = t.step
                src, tgt = Object(step.level, step.before), Object(step.level, step.after)
            else:
                break
            if not pol:
                src, tgt = tgt, src
            if last is None:
                first = src
            elif last is not src and last != src:
                break
            last = tgt
            if not todo:
                return first, last
            t, pol = todo.pop()
    except Exception:  # an unknown atom's KeyError, or an error the fold notes, or one before it in its order
        pass
    ends, _, error = _fold(root, ctx, False)
    if error:
        raise error
    return ends


# What an ill-formed subterm folds to: it meets nothing but itself, so its
# ancestors fail without noting it twice.
_FAILED = object()
_NO_ENDS = (_FAILED, _FAILED)


def _fold(t: PathTerm, ctx: Context, validating: bool) -> tuple:
    """The post-order fold behind ``validate``, and ``endpoints`` for formers and errors; on an explicit stack.

    It returns the ends, the violations ``validate`` reports and the first
    error, which ``endpoints`` raises, each error noted once as both, at its
    position in ``t``. A former is folded once, inline; at its close its
    violations give way to its first error, as an ``unresolved-lambda`` or
    ``endpoint-error``, unless that is a ``TypeError``: then they stay, or
    the former is a ``bad-term`` if there are none. Recorded steps and
    level ≥ 1 objects are taken on trust, as ``endpoints`` takes them, but
    when ``validating`` their terms are folded outside formers, and a step or
    object whose terms fold clean is remembered by identity. A chain check
    tries ``is`` before ``==``, and its message shows each end it can.
    """
    violations: list[Violation] = []
    clean: set[int] = set()  # ids of the steps and objects whose terms folded clean
    frames: list = []  # per node above t: [node, child index, a Trans's left ends, a step's before ends or a former's]
    # The call, then each former open above t: [its lambda, the violation count at its open, its first error].
    opened = [[None, 0, False if validating else None]]  # validate reads no error outside formers

    def note(kind: str, at: Position, message: str | None, error) -> tuple:
        if message:
            violations.append(Violation(kind, at, message))
        if opened[-1][2] is None:  # the innermost former's first error, built only then
            opened[-1][2] = error()
        return _NO_ENDS

    while True:
        tp = type(t)
        if tp is Trans or tp is Sym:
            frames.append([t, 0, None])
            t = t.left if tp is Trans else t.body
            continue
        if tp is Atom:
            try:
                ends = ctx.atoms[t.name].ends
            except KeyError:
                here, what = _here(frames), f"unknown atom '{t.name}'"
                ends = note("unknown-atom", here, what, lambda: UnknownAtom(what, here))
            except TypeError as exc:  # a name that cannot be hashed: a wrong type, which endpoints raises
                ends = note("bad-term", _here(frames), f"not a path term: {t!r}", lambda: exc)
        elif tp is Refl and type(t.obj) is Object:
            obj = t.obj
            ends = obj, obj
            if obj.level == 0:
                if isinstance(obj.payload, str) and obj.payload not in ctx.elements:
                    here, what = _here(frames), f"unknown element '{obj.payload}'"
                    ends = note("unknown-element", here, what, lambda: UnknownElement(what, here))
            else:
                trusted = not validating or len(opened) > 1
                if trusted:  # as endpoints takes it, which rejects only a level below 0, or no number
                    try:
                        error = obj.level < 0 and BadObject(obj.level, _here(frames))
                    except TypeError as exc:
                        error = exc
                    if error:  # the error endpoints raises; validate reports the object as if its terms were folded
                        trusted, opened[-1][2] = False, opened[-1][2] or error
                if not trusted and id(obj) not in clean:
                    if isinstance(obj.payload, (Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom)):
                        frames.append([t, 0, None])
                        t = obj.payload
                        continue
                    ends = note("bad-object", _here(frames), "object payload is not a path term", None)
        elif tp is StepAtom and all(hasattr(t.step, name) for name in ("level", "before", "after")):
            if validating and len(opened) == 1 and id(t.step) not in clean:
                frames.append([t, 0, None])
                t = t.step.before
                continue
            ends = Object(t.step.level, t.step.before), Object(t.step.level, t.step.after)
        elif tp is Xi or tp is Mu or tp is Nu:
            kept = [None, len(violations), None]
            try:
                kept[0] = applied_lambda(t, ctx)
            except UnresolvedLambda as exc:  # located only on error
                kept[2] = UnresolvedLambda(exc.what, _here(frames))
            except TypeError as exc:
                kept[2] = exc
            frames.append([t, 0, kept])
            opened.append(kept)
            t = t.body
            continue
        else:  # a non-term, a StepAtom around no step or a Refl around no object
            here = _here(frames)
            ends = note("bad-term", here, f"not a path term: {t!r}", lambda: _bad_leaf(t, here))
        # Fold the finished subtree into its ancestors, up to one with a child still to walk.
        while frames:
            frame = frames[-1]
            node = frame[0]
            tp = type(node)
            if tp is Sym:
                ends = ends[1], ends[0]
            elif frame[1] == 0 and (tp is Trans or tp is StepAtom):
                frame[1], frame[2] = 1, ends
                t = node.right if tp is Trans else node.step.after
                break
            elif tp is Trans:
                (lsrc, ltgt), (rsrc, rtgt) = frame[2], ends
                if ltgt is rsrc or ltgt == rsrc:
                    ends = lsrc, rtgt
                elif ltgt is _FAILED or rsrc is _FAILED:
                    ends = _NO_ENDS
                else:
                    here = _here(frames[:-1])
                    message = validating and f"cannot chain: {_shown(ltgt)} != {_shown(rsrc)}"  # only validate reads it
                    ends = note("endpoint-mismatch", here, message, lambda: EndpointMismatch(here, ltgt, rsrc))
            elif tp is Refl or tp is StepAtom:  # its terms are folded; a step's frame keeps its before's ends
                inner = node.obj if tp is Refl else node.step
                if ends[0] is _FAILED or tp is StepAtom and frame[2][0] is _FAILED:
                    ends = _NO_ENDS
                elif tp is StepAtom and frame[2] != ends:
                    ends = note("step-endpoints", _here(frames), "recorded step does not preserve endpoints", None)
                elif level(inner.payload if tp is Refl else inner.before) != inner.level:
                    what = "object level disagrees with its payload" if tp is Refl else "recorded step level disagrees with its terms"
                    ends = note("level-mismatch", _here(frames), what, None)
                else:
                    clean.add(id(inner))
                    ends = (inner, inner) if tp is Refl else (Object(inner.level, inner.before), Object(inner.level, inner.after))
            else:  # a former: its ends, or its first error
                f, count, error = opened.pop()
                if error is None:
                    try:
                        ends = former_endpoints(node, f, ends, ctx)
                    except UnresolvedLambda as exc:  # located only on error
                        error = UnresolvedLambda(exc.what, _here(frames[:-1]))
                if isinstance(error, TypeError):  # the body's violations stay; if it has none, the former is one
                    message = len(violations) == count and f"not a path term: {node!r}"
                    ends = note("bad-term", message and _here(frames[:-1]), message, lambda: error)
                elif error is not None:
                    del violations[count:]
                    kind = "unresolved-lambda" if isinstance(error, UnresolvedLambda) else "endpoint-error"
                    ends = note(kind, error.position, str(error), lambda: error)
            frames.pop()
        else:
            return ends, violations, opened[0][2]


def _here(frames: list) -> Position:
    """The position below ``frames``; the terms inside an object or a recorded step sit at its own."""
    return tuple([f[1] for f in frames if type(f[0]) is not Refl and type(f[0]) is not StepAtom])


def _shown(obj: Object) -> str:
    """``format_object``, or the payload's ``repr`` where that cannot render it."""
    try:
        return format_object(obj)
    except (TypeError, PathRwError):
        return repr(obj.payload)


def former_endpoints(
    t: Xi | Mu | Nu,
    f: LambdaTerm | None,
    body_ends: tuple[Object, Object],
    ctx: Context,
) -> tuple[Object, Object]:
    """A congruence former's endpoints, built from its body's without walking the body.

    ``f`` is the lambda value a Mu or Nu applies (None for Xi).
    """
    tp = type(t)
    m = _resolve_lambda(body_ends[0], ctx)
    m2 = _resolve_lambda(body_ends[1], ctx)
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

    It accepts only terms that ``endpoints`` accepts, but not all of them:
    outside formers it also folds the terms inside recorded steps and object
    payloads, which ``endpoints`` takes on trust, and rejects what is wrong there.
    """
    return WellFormednessReport(tuple(_fold(t, ctx, True)[1]))


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
    an explicit stack, which also holds the text that closes each node. A
    recorded-step atom around no step raises ``BadStep`` at its position, and
    a Refl around no object ``NotAnObject``.
    """
    root, out = t, []
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
            try:
                payload = t.obj.payload
            except AttributeError:  # no object: its position is found only now
                raise _bad_leaf(t, _position_of(root, t)) from None
            if isinstance(payload, (str, Var, Abs, App)):
                out.append(f"rho({format_object(t.obj)})")
            else:  # a path term one level down, or a non-term that raises when reached
                out.append("rho(")
                todo += (_CLOSE, payload)
        elif tp is StepAtom:
            step = t.step
            try:
                out.append(f"step[{step.rule}@{fmt_position(step.position)}:{step.direction[0]}]")
            except AttributeError:  # no step: its position is found only now
                raise _bad_leaf(t, _position_of(root, t)) from None
        else:
            raise TypeError(f"not a path term: {t!r}")
    return "".join(out)
