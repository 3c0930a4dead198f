"""Minimal lambda-term core.

Just enough lambda calculus to certify step atoms tagged with an equality
axiom shape (beta, eta, alpha) and to compute endpoints of the congruence
formers: terms, free variables, capture-avoiding substitution, and
alpha-equivalence. No types, no normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, TypeAlias, Union

from .errors import NotAnAxiomInstance

if TYPE_CHECKING:
    from .terms import AtomDecl, Context


@dataclass(frozen=True, slots=True)
class Var:
    """A variable occurrence."""

    name: str


@dataclass(frozen=True, slots=True)
class Abs:
    """An abstraction binding ``var`` in ``body``."""

    var: str
    body: LambdaTerm


@dataclass(frozen=True, slots=True)
class App:
    """An application of ``func`` to ``arg``."""

    func: LambdaTerm
    arg: LambdaTerm


LambdaTerm: TypeAlias = Union[Var, Abs, App]


def free_vars(t: LambdaTerm) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Abs(var, body):
            return free_vars(body) - {var}
        case App(func, arg):
            return free_vars(func) | free_vars(arg)
    raise TypeError(f"not a lambda term: {t!r}")


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """First primed variant of ``base`` not in ``avoid``; deterministic."""
    candidate = base + "'"
    while candidate in avoid:
        candidate += "'"
    return candidate


def substitute(m: LambdaTerm, x: str, n: LambdaTerm) -> LambdaTerm:
    """Capture-avoiding substitution of ``n`` for ``x`` in ``m``.

    Bound variables are renamed (by appending primes) only when they would
    capture a free variable of ``n``.
    """
    match m:
        case Var(name):
            return n if name == x else m
        case App(func, arg):
            return App(substitute(func, x, n), substitute(arg, x, n))
        case Abs(var, body):
            if var == x:
                return m
            if var in free_vars(n) and x in free_vars(body):
                renamed = fresh_name(var, free_vars(n) | free_vars(body) | {x})
                body = substitute(body, var, Var(renamed))
                var = renamed
            return Abs(var, substitute(body, x, n))
    raise TypeError(f"not a lambda term: {m!r}")


def alpha_eq(m: LambdaTerm, n: LambdaTerm) -> bool:
    """True iff ``m`` and ``n`` differ only in the names of bound variables."""
    todo = [(m, n, {}, {}, 0)]  # env: bound name -> binder depth; a stack, as a self-calling closure is a cycle
    while todo:
        a, b, env_a, env_b, depth = todo.pop()
        match a, b:
            case Var(x), Var(y):
                if env_a.get(x) != env_b.get(y) or x not in env_a and x != y:
                    return False
            case Abs(va, ba), Abs(vb, bb):
                todo.append((ba, bb, {**env_a, va: depth}, {**env_b, vb: depth}, depth + 1))
            case App(fa, aa), App(fb, ab):
                todo += (aa, ab, env_a, env_b, depth), (fa, fb, env_a, env_b, depth)
            case _:
                return False
    return True


class Text(str):
    """Literal output on a formatter's stack, told apart from the terms still to render."""


_OPEN, _CLOSE, _SPACE, _SPACE_OPEN = Text("("), Text(")"), Text(" "), Text(" (")


def format_lambda(t: LambdaTerm) -> str:
    """Render a term in the script syntax: ``\\x. M``, application by juxtaposition.

    The walk is pre-order on an explicit stack, so deep terms do not recurse.
    """
    out: list[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        tp = type(t)
        if tp is Text or tp is Var:
            out.append(t if tp is Text else t.name)
        elif tp is Abs:
            out.append(f"\\{t.var}. ")
            todo.append(t.body)
        elif tp is App:
            arg = t.arg
            todo += (_CLOSE, arg, _SPACE_OPEN) if type(arg) is Abs or type(arg) is App else (arg, _SPACE)
            todo += (_CLOSE, t.func, _OPEN) if type(t.func) is Abs else (t.func,)
        else:
            raise TypeError(f"not a lambda term: {t!r}")
    return "".join(out)


def validate_axiom_atom(atom: AtomDecl, ctx: Context) -> bool:
    """Check that a tagged atom's endpoints have the shape its tag demands.

    beta:  endpoints are ((\\x. M) N, M[N/x]) for some decomposition.
    eta:   endpoints are (\\x. M x, M) with x not free in M.
    alpha: endpoints are alpha-equal.

    Returns True on success and raises NotAnAxiomInstance otherwise;
    untagged ("declared") atoms are accepted without inspection.
    """
    if atom.tag == "declared":
        return True
    lhs = ctx.lambda_elements.get(atom.source)
    rhs = ctx.lambda_elements.get(atom.target)
    if lhs is None or rhs is None:
        raise NotAnAxiomInstance(
            f"{atom.tag}-tagged atom endpoints '{atom.source}', '{atom.target}' "
            "need lambda definitions"
        )
    if atom.tag == "beta":
        match lhs:
            case App(Abs(var, body), arg):
                if alpha_eq(rhs, substitute(body, var, arg)):
                    return True
                raise NotAnAxiomInstance(
                    "beta: right endpoint is not the substitution instance of the left"
                )
        raise NotAnAxiomInstance("beta: left endpoint is not an applied abstraction")
    if atom.tag == "eta":
        match lhs:
            case Abs(var, App(func, Var(arg_name))) if arg_name == var:
                if var in free_vars(func):
                    raise NotAnAxiomInstance("eta: bound variable occurs free in the function")
                if alpha_eq(rhs, func):
                    return True
                raise NotAnAxiomInstance("eta: right endpoint differs from the function part")
        raise NotAnAxiomInstance("eta: left endpoint is not of the shape \\x. M x")
    if atom.tag == "alpha":
        if alpha_eq(lhs, rhs):
            return True
        raise NotAnAxiomInstance("alpha: endpoints are not alpha-equal")
    raise NotAnAxiomInstance(f"unknown axiom tag '{atom.tag}'")
