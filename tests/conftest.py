"""Shared fixtures: contexts, term enumerators, hypothesis strategies."""

from __future__ import annotations

import itertools
import pathlib
import re

import pytest
from hypothesis import settings, strategies as st

from pathrw.engine import Derivation, contract_once, derivation_to_path, invert_derivation
from pathrw.lam import Abs, App, Var
from pathrw.rules import PAPER7, match_redexes
from pathrw.terms import Atom, AtomDecl, Context, Mu, Nu, Object, Refl, Sym, Trans, Xi, endpoints, size

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang: str) -> list[str]:
    """The README's fenced code blocks whose opening fence names ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def el(name: str) -> Object:
    """The level-0 object of element ``name``."""
    return Object(0, name)


# Contexts and scripts shared by the test modules. No test changes one: a test
# that needs a changed context builds its own.
TRIANGLE = Context(
    ("A",),
    {"a": "A", "b": "A", "c": "A"},
    {},
    {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A"), "u": AtomDecl("a", "c", "A")},
)
CTX_RS = Context(
    ("A",),
    {"a": "A", "b": "A", "c": "A"},
    {},
    {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A")},
)
# Lambda values for both elements, so every path drawn can sit under a former.
LAM_PATHS = Context(
    ("F",), {"m": "F", "n": "F"}, {"m": Abs("x", Var("x")), "n": Abs("y", Var("y"))}, {"al": AtomDecl("m", "n", "F")}
)
TRIANGLE_SCRIPT = "type A\nelem a b c : A\nstep r : a = b\nstep s : b = c\nstep u : a = c\n"
LAMBDA_SCRIPT = "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"
# Scripts whose line 4 puts a xi over what has no lambda value, each with its
# error: the line and column of the xi, and no position inside it.
FORMER_ERRORS = {
    "type A\nelem a b : A\nstep r : a = b\npath q := sigma(xi(v, r))\n": "4:17: element 'a' has no lambda value",
    "type A\nelem a b : A\nstep r : a = b\npath w := tau(rho(a), xi(v, rho(r)))\n":
        "4:23: congruence former over a non-element object",
}


@pytest.fixture
def ctx_r() -> Context:
    """One atom r: a = b."""
    return Context(("A",), {"a": "A", "b": "A"}, {}, {"r": AtomDecl("a", "b", "A")})


@pytest.fixture
def ctx_rs() -> Context:
    """Two chained atoms r: a = b, s: b = c."""
    return Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A"},
        {},
        {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A")},
    )


@pytest.fixture
def ctx_fan() -> Context:
    """Two atoms out of a: r: a = b, s: a = c (types the inverse-pair peak)."""
    return Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A"},
        {},
        {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("a", "c", "A")},
    )


@pytest.fixture
def ctx_chain4() -> Context:
    """Three chained atoms for three-factor compositions."""
    return Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A", "d": "A"},
        {},
        {
            "t0": AtomDecl("a", "b", "A"),
            "r0": AtomDecl("b", "c", "A"),
            "s0": AtomDecl("c", "d", "A"),
        },
    )


@pytest.fixture
def ctx_lam() -> Context:
    """Lambda-valued elements for congruence formers and tagged atoms."""
    return Context(
        ("F",),
        {"m": "F", "n": "F"},
        {"m": Abs("x", Var("x")), "n": Abs("y", Var("y"))},
        {"al": AtomDecl("m", "n", "F", "alpha")},
    )


def raw_trees(leaves, max_size):
    """Every tree over Sym/Trans and the given leaves, well-formed or not."""
    by_size = [[] for _ in range(max_size + 1)]
    if max_size >= 1:
        by_size[1] = list(leaves)
    for k in range(2, max_size + 1):
        by_size[k].extend(Sym(t) for t in by_size[k - 1])
        for i in range(1, k - 1):
            for left in by_size[i]:
                for right in by_size[k - 1 - i]:
                    by_size[k].append(Trans(left, right))
    return itertools.chain.from_iterable(by_size[1:])


def term_strategy(ctx: Context, max_depth: int = 4):
    """Hypothesis strategy for well-formed level-1 terms over ``ctx``."""
    leaves = [Atom(name) for name in ctx.atoms]
    leaves += [Refl(Object(0, name)) for name in ctx.elements]

    def extend(children):
        sym = children.map(Sym)
        paired = st.tuples(children, children).filter(
            lambda pair: endpoints(pair[0], ctx)[1] == endpoints(pair[1], ctx)[0]
        )
        return st.one_of(sym, paired.map(lambda pair: Trans(*pair)))

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=max_depth * 2)


def lambda_terms_up_to(depth: int, names=("x", "y")):
    """All lambda terms of nesting depth <= depth over the given names."""
    levels = [[], [Var(name) for name in names]]
    for d in range(2, depth + 1):
        prev = [t for lvl in levels[1:d] for t in lvl]
        prev_exact = levels[d - 1]
        new = []
        for t in prev_exact:
            new.extend(Abs(name, t) for name in names)
        for left, right in itertools.product(prev, prev):
            if max(_lam_depth(left), _lam_depth(right)) == d - 1:
                new.append(App(left, right))
        levels.append(new)
    return [t for lvl in levels[1:] for t in lvl]


def _lam_depth(t) -> int:
    match t:
        case Var(_):
            return 1
        case Abs(_, body):
            return 1 + _lam_depth(body)
        case App(func, arg):
            return 1 + max(_lam_depth(func), _lam_depth(arg))
    raise TypeError


def large_term_strategy(ctx: Context, min_size: int = 50, max_size: int = 500):
    """Hypothesis strategy for well-formed level-1 terms of ``min_size``-``max_size`` nodes over ``ctx``.

    A seeded builder grows a path from a random element. Compositions split
    the node budget; the other pieces wrap a sub-path in redundancy (units,
    inverse pairs, double inverses, an inverted composition) or are
    alternating Sym/Trans nests ``sigma(tau(…sigma(tau(p, q))…, q'))``.
    """
    sizes = st.integers(min_size, max_size)
    return st.builds(_large_term, st.just(ctx), sizes, st.just(max_size), st.randoms(use_true_random=False))


def _large_term(ctx: Context, target: int, max_size: int, rng):
    letters = {x: [] for x in ctx.elements}
    for name, decl in ctx.atoms.items():
        letters[decl.source].append((Atom(name), decl.target))
        letters[decl.target].append((Sym(Atom(name)), decl.source))

    def leaf(x):
        options = letters[x] + [(Refl(Object(0, x)), x)]
        return rng.choice(options)

    def path(x, budget, depth):
        if budget <= 2 or depth > 40:
            return leaf(x)
        kind = rng.choice(("trans", "trans", "trans", "unit", "double", "invert", "cancel", "nest"))
        if kind == "trans":
            a = rng.randint(1, budget - 2)
            left, y = path(x, a, depth + 1)
            right, z = path(y, budget - 1 - a, depth + 1)
            return Trans(left, right), z
        if kind == "unit":
            p, y = path(x, budget - 2, depth + 1)
            return (Trans(Refl(Object(0, x)), p) if rng.random() < 0.5 else Trans(p, Refl(Object(0, y)))), y
        if kind == "double":
            p, y = path(x, budget - 2, depth + 2)
            return Sym(Sym(p)), y
        if kind == "invert":  # sigma of the path's structural inverse: a Sym over compositions
            p, y = path(x, budget - 1, depth + 1)
            return Sym(inverse(p)), y
        if kind == "cancel":  # an inverse pair, then the rest of the budget
            a = max(1, (budget - 3) // 3)
            p, y = path(x, a, depth + 2)
            pair = Trans(p, Sym(p)) if rng.random() < 0.5 else Trans(Sym(inverse(p)), inverse(p))
            rest, z = path(x, budget - 3 - 2 * a, depth + 1)
            return Trans(pair, rest), z
        return nest(x, budget, depth)

    def inverse(p):
        tp = type(p)
        if tp is Trans:
            return Trans(inverse(p.right), inverse(p.left))
        if tp is Sym:
            return p.body
        return Sym(p)

    def nest(x, budget, depth):
        """sigma(tau(sigma(tau(p0, q0)), q1)...), leaving ``x``: each level goes from its q's end to its p's start."""
        levels = min(rng.randint(2, max(2, budget // 8)), (60 - depth) // 2, 20)
        if levels < 1:
            return leaf(x)
        small = max(1, budget // (levels + 1) - 2)
        start = rng.choice(sorted(letters))
        p, end = path(start, small, depth + 2 * levels)
        for k in range(levels):
            q, end2 = path(end, small, depth + 2 * levels)
            if k == levels - 1:  # the outermost level must leave x
                q = Trans(q, connect(end2, x))
            p, end = Sym(Trans(p, q)), start
            start = x if k == levels - 1 else end2
        return p, end

    def connect(a, b):
        """A shortest letter walk from a to b, or rho(a)."""
        seen, todo = {a: Refl(Object(0, a))}, [a]
        while todo:
            y = todo.pop(0)
            for letter, z in letters[y]:
                if z not in seen:
                    seen[z] = letter if y == a else Trans(seen[y], letter)
                    todo.append(z)
        return seen[b]

    x = rng.choice(sorted(letters))
    budget = target
    while True:
        t, y = path(x, budget, 0)
        n = size(t)
        while n < target:
            more, y = path(y, target - n + 1, 1)
            t, n = Trans(t, more), n + 1 + size(more)
        if n <= max_size:
            return t
        budget = max(1, budget * 3 // 4)


def former_term_strategy(ctx: Context, min_size: int = 20, max_size: int = 150):
    """Hypothesis strategy for well-formed level-1 terms with paths under nested xi/mu/nu formers.

    ``ctx`` needs lambda-valued elements, as ``ctx_lam`` has. Up to three
    formers nest over element paths drawn as in ``large_term_strategy``;
    each layer is dressed in redundancy whose redexes hold formers: units at
    lambda endpoints, double inverses, inverse pairs built apart, and a
    former over a path followed by the same former over its inverse.
    """
    sizes = st.integers(min_size, max_size)
    return st.builds(_former_term, st.just(ctx), sizes, st.randoms(use_true_random=False))


def _former_term(ctx: Context, target: int, rng):
    names = sorted(ctx.lambda_elements)

    def build(budget, depth):
        if budget < 12 or depth == 3:
            return _large_term(ctx, max(1, budget), max(1, budget) + 20, rng)
        kind = rng.choice(("xi", "mu", "nu"))
        label = rng.choice(("v", "w")) if kind == "xi" else rng.choice(names)

        def wrap(p):  # the same former, built afresh per call
            return Xi(label, p) if kind == "xi" else Mu(label, p) if kind == "mu" else Nu(p, label)

        p = build(budget // 2, depth + 1)
        t = wrap(p)
        src, tgt = endpoints(t, ctx)
        dress = rng.choice(("bare", "unit", "double", "cancel", "inverse", "invert"))
        if dress == "unit":
            t = Trans(Refl(src), t) if rng.random() < 0.5 else Trans(t, Refl(tgt))
        elif dress == "double":
            t = Sym(Sym(t))
        elif dress == "cancel":  # an inverse pair whose halves are equal but built apart
            t = Trans(Trans(t, Sym(wrap(p))), wrap(p))
        elif dress == "inverse":  # a former over p, then over p's inverse, then p again
            t = Trans(t, Trans(wrap(Sym(p)), wrap(p)))
        elif dress == "invert":
            t = Sym(Trans(Sym(t), Refl(src)))
        return t

    return build(target, 0)


def lifted_term_strategy(ctx: Context, max_depth: int = 4):
    """Hypothesis strategy for well-formed level-2 terms over ``ctx``, lifted from random derivations.

    Random paper7 contraction chains from a ``term_strategy`` term, read
    forward or inverted, become level-2 paths through ``derivation_to_path``.
    Up to four chained ones are composed, each dressed in level-2 redundancy
    (units, double inverses, inverse pairs, an inverted composition).
    """
    return st.builds(_lifted_term, st.just(ctx), term_strategy(ctx, max_depth), st.randoms(use_true_random=False))


def _lifted_term(ctx: Context, u, rng):
    def walk(start):
        cur, steps = start, []
        for _ in range(rng.randint(0, 3)):
            found = match_redexes(PAPER7, cur)
            if not found:
                break
            rule, pos = rng.choice(found)
            cur, step = contract_once(cur, rule, pos, PAPER7, ctx)
            steps.append(step)
        return Derivation(start, tuple(steps), 1)

    pieces, d = [], None
    for _ in range(rng.randint(1, 4)):
        # the last chain read backwards, or a fresh one from where it ended
        d = invert_derivation(d) if d is not None and d.steps and rng.random() < 0.3 else walk(d.end if d else u)
        src, tgt = Object(1, d.start), Object(1, d.end)
        p = derivation_to_path(d)
        dress = rng.choice(("bare", "unit", "double", "cancel", "invert"))
        if dress == "unit":
            p = Trans(Refl(src), p) if rng.random() < 0.5 else Trans(p, Refl(tgt))
        elif dress == "double":
            p = Sym(Sym(p))
        elif dress == "cancel":
            p = Trans(Trans(p, Sym(p)), p)
        elif dress == "invert":
            p = Sym(Trans(Sym(p), Refl(src)))
        pieces.append(p)
    t = pieces[0]
    for p in pieces[1:]:
        t = Trans(t, p) if rng.random() < 0.5 or type(t) is not Trans else Trans(t.left, Trans(t.right, p))
    return t
