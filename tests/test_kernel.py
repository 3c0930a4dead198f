"""The term kernel's exact-type dispatch against its class-pattern references.

The references below are the kernel as it was written with structural
``match`` cases, each ``case`` an ``isinstance`` test. The kernel now tests
exact type, and ``endpoints`` folds Sym and Trans on an explicit stack. On
every term set here both must return equal results, and raise the same error
type with the same text and position.

Two more references cover the rewrite kernel: candidate schemas chosen by the
root class alone, against the generated per-rule-set matchers, and replay that
contracts the redex side and compares the whole result, against replay that
builds no spine. ``ref_subterm_at`` and ``ref_replace_at`` are the position
walks as they were before one zipper, ``terms.move``, did both; chains of
them check the zipper's moves too. The redex walk, ``rules.redexes``, meets
its recursive reference on the sweeps and on random terms under formers and
lifted to level 2.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pathrw.engine import Derivation, RewriteStep, contract_once, decide_rw_equal, normalize, replay_derivation
from pathrw.errors import (
    EndpointMismatch,
    PathRwError,
    PositionedError,
    UnknownAtom,
    UnknownElement,
    UnknownRule,
    UnresolvedLambda,
)
from pathrw.groupoid import _lift_from, _random_term_at_level
from pathrw.lam import Abs, App, Var
from pathrw.oracle import Letter, ReducedWord, enumerate_terms, read_back, word
from pathrw.rules import (
    FORWARD,
    GROUPOID_COMPLETE,
    PAPER7,
    REVERSE,
    PRefl,
    PSym,
    PTrans,
    PVar,
    RReflAtSource,
    RReflAtTarget,
    RuleSchema,
    match_redexes,
    redexes,
)
from pathrw.terms import (
    Atom,
    AtomDecl,
    Context,
    Mu,
    Nu,
    Object,
    Refl,
    StepAtom,
    Sym,
    Trans,
    Xi,
    endpoints,
    level,
    move,
    replace_at,
    subterm_at,
    with_child,
)

from conftest import LAM_PATHS, TRIANGLE, former_term_strategy, large_term_strategy, lifted_term_strategy, raw_trees

LAM = Context(
    ("F",),
    {"m": "F", "n": "F", "k": "F", "z": "F"},
    {"m": Abs("x", Var("x")), "n": Abs("y", Var("y")), "k": Var("w")},
    {"al": AtomDecl("m", "n", "F", "alpha"), "be": AtomDecl("n", "k", "F")},
)


# --- references: the class-pattern kernel --------------------------------------


def ref_level(t):
    while isinstance(t, (Sym, Trans)):
        t = t.body if isinstance(t, Sym) else t.left
    match t:
        case Atom() | Xi() | Mu() | Nu():
            return 1
        case Refl(obj):
            return obj.level + 1
        case StepAtom(step):
            return step.level + 1
    raise TypeError(f"not a path term: {t!r}")


def ref_path_children(t):
    match t:
        case Sym(body) | Xi(_, body) | Mu(_, body) | Nu(body, _):
            return (body,)
        case Trans(left, right):
            return (left, right)
        case _:
            return ()


def ref_with_child(t, i, child):
    match t:
        case Trans():
            if i == 0:
                return Trans(child, t.right)
            if i == 1:
                return Trans(t.left, child)
        case Sym() if i == 0:
            return Sym(child)
        case Xi(var, _) if i == 0:
            return Xi(var, child)
        case Mu(func, _) if i == 0:
            return Mu(func, child)
        case Nu(_, arg) if i == 0:
            return Nu(child, arg)
    raise PathRwError(f"no child {i} of {type(t).__name__}")


def ref_subterm_at(t, pos):
    for i in pos:
        children = ref_path_children(t)
        if type(i) is not int or not 0 <= i < len(children):
            raise PositionedError("no subterm", pos)
        t = children[i]
    return t


def ref_replace_at(t, pos, new):
    spine = []
    for i in pos:
        spine.append(t)
        tp = type(t)
        if tp is Trans and (i == 0 or i == 1) and type(i) is int:
            t = t.right if i else t.left
        elif i == 0 and type(i) is int and (tp is Sym or tp is Xi or tp is Mu or tp is Nu):
            t = t.body
        else:
            raise PositionedError("no subterm", pos)
    for node, i in zip(reversed(spine), reversed(pos)):
        if type(node) is Trans:
            new = Trans(node.left, new) if i else Trans(new, node.right)
        else:
            new = ref_with_child(node, i, new)
    return new


def _resolve(obj, ctx, pos):
    if obj.level != 0:
        raise UnresolvedLambda("congruence former over a non-element object", pos)
    if isinstance(obj.payload, str):
        value = ctx.lambda_elements.get(obj.payload)
        if value is None:
            raise UnresolvedLambda(f"element '{obj.payload}' has no lambda value", pos)
        return value
    return obj.payload


def _applied(name, ctx, pos):
    value = ctx.lambda_elements.get(name)
    if value is None:
        raise UnresolvedLambda(f"applied element '{name}' has no lambda value", pos)
    return value


def ref_endpoints(t, ctx, _pos=()):
    match t:
        case Atom(name):
            decl = ctx.atoms.get(name)
            if decl is None:
                raise UnknownAtom(f"unknown atom '{name}'", _pos)
            return Object(0, decl.source), Object(0, decl.target)
        case Refl(obj):
            if obj.level == 0 and isinstance(obj.payload, str) and obj.payload not in ctx.elements:
                raise UnknownElement(f"unknown element '{obj.payload}'", _pos)
            return obj, obj
        case Sym(body):
            src, tgt = ref_endpoints(body, ctx, _pos + (0,))
            return tgt, src
        case Trans(left, right):
            lsrc, ltgt = ref_endpoints(left, ctx, _pos + (0,))
            rsrc, rtgt = ref_endpoints(right, ctx, _pos + (1,))
            if ltgt != rsrc:
                raise EndpointMismatch(_pos, ltgt, rsrc)
            return lsrc, rtgt
        case Xi(var, body):
            src, tgt = ref_endpoints(body, ctx, _pos + (0,))
            return (
                Object(0, Abs(var, _resolve(src, ctx, _pos))),
                Object(0, Abs(var, _resolve(tgt, ctx, _pos))),
            )
        case Mu(func, body):
            f = _applied(func, ctx, _pos)
            src, tgt = ref_endpoints(body, ctx, _pos + (0,))
            return (
                Object(0, App(f, _resolve(src, ctx, _pos))),
                Object(0, App(f, _resolve(tgt, ctx, _pos))),
            )
        case Nu(body, arg):
            f = _applied(arg, ctx, _pos)
            src, tgt = ref_endpoints(body, ctx, _pos + (0,))
            return (
                Object(0, App(_resolve(src, ctx, _pos), f)),
                Object(0, App(_resolve(tgt, ctx, _pos), f)),
            )
        case StepAtom(step):
            return Object(step.level, step.before), Object(step.level, step.after)
    raise TypeError(f"not a path term: {t!r}")


def ref_concat(w1, w2):
    letters = list(w1.letters)
    for letter in w2.letters:
        if letters and letters[-1].gen == letter.gen and letters[-1].orient == -letter.orient:
            letters.pop()
        else:
            letters.append(letter)
    return ReducedWord(w1.base, tuple(letters))


def ref_reverse(w):
    return ReducedWord(w.target, tuple(Letter(x.gen, -x.orient, x.tgt, x.src) for x in reversed(w.letters)))


def ref_word(t, ctx):
    def single(key):
        src, tgt = ref_endpoints(t, ctx)
        return ReducedWord(src, (Letter(key, 1, src, tgt),))

    match t:
        case Refl(obj):
            return ReducedWord(obj, ())
        case Atom(name):
            return single(Atom(name))
        case Sym(body):
            return ref_reverse(ref_word(body, ctx))
        case Trans(left, right):
            return ref_concat(ref_word(left, ctx), ref_word(right, ctx))
        case Xi(var, body):
            return single(Xi(var, read_back(ref_word(body, ctx))))
        case Mu(func, body):
            return single(Mu(func, read_back(ref_word(body, ctx))))
        case Nu(body, arg):
            return single(Nu(read_back(ref_word(body, ctx)), arg))
        case StepAtom(step):
            return single(StepAtom(step))
    raise TypeError(f"not a path term: {t!r}")


def ref_build_template(template, binding, ctx):
    match template:
        case PVar(name):
            return binding[name]
        case PRefl(obj_var):
            return Refl(binding[obj_var])
        case PSym(body):
            return Sym(ref_build_template(body, binding, ctx))
        case PTrans(left, right):
            return Trans(ref_build_template(left, binding, ctx), ref_build_template(right, binding, ctx))
        case RReflAtSource(var):
            return Refl(ref_endpoints(binding[var], ctx)[0])
        case RReflAtTarget(var):
            return Refl(ref_endpoints(binding[var], ctx)[1])
    raise TypeError(f"not a template: {template!r}")


def ref_find(rs, rule_name, at_level):
    base = rule_name.rstrip("0123456789")
    if not (base.isascii() and base.isalpha() and base.islower()):
        raise UnknownRule(f"malformed rule name '{rule_name}'")
    suffix = rule_name[len(base) :]
    if suffix and int(suffix) != at_level:
        raise UnknownRule(f"rule '{rule_name}' is pinned to level {int(suffix)}, not {at_level}")
    for schema in rs.schemas:
        if schema.name == base:
            if at_level < 1:
                raise ValueError("levels start at 1")
            return schema
    raise UnknownRule(f"no rule named '{rule_name}' in rule set '{rs.name}'")


# --- comparison ------------------------------------------------------------------


def outcome(f, *args):
    """What a call gives: ("ok", value) or ("raise", type, text, position)."""
    try:
        return ("ok", f(*args))
    except (PathRwError, TypeError, KeyError, ValueError) as exc:
        return ("raise", type(exc), str(exc), getattr(exc, "position", None))


def assert_same(new, old, *args):
    assert outcome(new, *args) == outcome(old, *args), args


def checked_ref_word(t, ctx):
    """``ref_word`` behind ``ref_endpoints``: ``word`` raises what ``endpoints`` raises."""
    ref_endpoints(t, ctx)
    return ref_word(t, ctx)


def subterms(t):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(ref_path_children(node))


def check_kernel(terms, ctx):
    """Every kernel function agrees with its reference on every subterm."""
    checked = 0
    for t in terms:
        for node in subterms(t):
            assert_same(level, ref_level, node)
            assert_same(endpoints, ref_endpoints, node, ctx)
            assert_same(word, checked_ref_word, node, ctx)
            for i in (0, 1, 2):
                assert_same(with_child, ref_with_child, node, i, Atom("x"))
            checked += 1
    return checked


SWEEP = list(enumerate_terms(TRIANGLE, 7))


def test_kernel_agrees_on_the_triangle_sweep():
    assert check_kernel(SWEEP, TRIANGLE) > len(SWEEP)


def _lam_terms():
    """Nested xi/mu/nu formers, dressed and bare, some unresolvable."""
    al, be = Atom("al"), Atom("be")
    bodies = [al, Sym(al), Trans(al, be), Trans(al, Sym(al)), Refl(Object(0, "n")), Refl(Object(0, "z"))]
    out = []
    for body in bodies:
        inner = [Xi("v", body), Mu("m", body), Nu(body, "n"), Mu("z", body), Nu(body, "k")]
        out += inner
        for former in inner:
            out += [Xi("w", former), Mu("n", former), Nu(former, "m"), Sym(former)]
            out += [Trans(former, Sym(former)), Trans(Sym(former), former), Trans(former, former)]
    return out


def test_kernel_agrees_on_congruence_formers():
    terms = _lam_terms()
    check_kernel(terms, LAM)
    raised = {outcome(endpoints, t, LAM)[1] for t in terms if outcome(endpoints, t, LAM)[0] == "raise"}
    assert raised == {UnresolvedLambda, EndpointMismatch}


def _lifted_terms():
    """Level-2 and level-3 terms lifted as the groupoid law sampler lifts them."""
    rng = random.Random(7)
    out = []
    for u in SWEEP[::97]:
        lifted, _ = _lift_from(u, *endpoints(u, TRIANGLE), TRIANGLE, rng)
        out += [lifted, Sym(lifted), Trans(lifted, Sym(lifted))]
    out += [_random_term_at_level(TRIANGLE, lv, rng)[0] for lv in (2, 3) for _ in range(10)]
    return out


def test_kernel_agrees_on_lifted_terms():
    terms = _lifted_terms()
    assert {level(t) for t in terms} == {2, 3}
    check_kernel(terms, TRIANGLE)


def test_kernel_agrees_on_ill_formed_trees():
    leaves = [Atom("r"), Atom("s"), Atom("zap"), Refl(Object(0, "a")), Refl(Object(0, "q"))]
    trees = list(raw_trees(leaves, 5))
    check_kernel(trees, TRIANGLE)
    kinds = {outcome(endpoints, t, TRIANGLE)[1] for t in trees}
    assert {UnknownAtom, UnknownElement, EndpointMismatch} <= kinds


NON_TERMS = [42, "r", None, Object(0, "a"), PVar("r")]


@pytest.mark.parametrize("bad", NON_TERMS, ids=repr)
def test_kernel_rejects_non_terms_alike(bad):
    for t in (bad, Sym(bad), Trans(Atom("r"), bad), Trans(Sym(bad), Atom("r")), Xi("v", bad)):
        assert_same(level, ref_level, t)
        assert_same(endpoints, ref_endpoints, t, TRIANGLE)
        assert_same(word, checked_ref_word, t, TRIANGLE)
        for i in (0, 1, -1, 2):
            assert_same(with_child, ref_with_child, t, i, Atom("r"))
    assert outcome(endpoints, bad, TRIANGLE)[1] is TypeError


def test_endpoints_folds_long_chains_without_recursion():
    rho_b, r = Refl(Object(0, "b")), Atom("r")
    left, right, syms = r, r, r
    for _ in range(5000):
        left, right, syms = Trans(left, rho_b), Trans(Refl(Object(0, "a")), right), Sym(Sym(syms))
    for t in (left, right, syms):
        assert endpoints(t, TRIANGLE) == (Object(0, "a"), Object(0, "b"))
    with pytest.raises(EndpointMismatch) as exc:
        endpoints(Trans(left, r), TRIANGLE)
    assert exc.value.position == ()


def _positions(t, pos=()):
    """Every position in ``t``, pre-order."""
    yield pos
    for i, child in enumerate(ref_path_children(t)):
        yield from _positions(child, pos + (i,))


def test_positions_agree_on_the_sweep(ctx_rs):
    """``subterm_at`` and ``replace_at`` at every position, and next to each, of every term up to size 7."""
    checked = 0
    for t in enumerate_terms(ctx_rs, 7):
        for pos in _positions(t):
            for p in (pos, pos + (0,), pos + (1,), pos + (2,), pos + (-1,)):
                assert_same(subterm_at, ref_subterm_at, t, p)
                assert_same(replace_at, ref_replace_at, t, p, Atom("x"))
            checked += 1
    assert checked > 6000


@settings(max_examples=30)
@given(large_term_strategy(TRIANGLE, 20, 200), st.randoms(use_true_random=False))
def test_zipper_agrees_with_rebuilding(t, rng):
    """Random moves and replacements: each focus, and the root at the end, as the references give them.

    Moves go anywhere, to a sibling or to the parent, from any prefix shared
    with the focus's position; some follow a replacement and some do not.
    """
    root, stack, here, focus = t, [], (), t
    for _ in range(40):
        if rng.random() < 0.4:
            new = rng.choice([Atom("r"), Refl(Object(0, "a")), Sym(focus), Trans(focus, Atom("s"))])
            root, focus = ref_replace_at(root, here, new), new
            continue
        pick = rng.random()
        if here and pick < 0.3 and type(ref_subterm_at(root, here[:-1])) is Trans:
            pos = here[:-1] + (1 - here[-1],)
        elif here and pick < 0.4:
            pos = here[:-1]
        else:
            pos = rng.choice(list(_positions(root)))
        shared = 0
        while shared < min(len(here), len(pos)) and here[shared] == pos[shared]:
            shared += 1
        focus = move(stack, focus, here, pos, rng.randint(0, shared))
        here = pos
        assert focus == ref_subterm_at(root, here) and len(stack) == len(here)
    assert move(stack, focus, here, (), 0) == root


def ref_build(schema):
    """``build`` by the reference: the right-hand side over a binding."""
    return lambda binding, ctx: ref_build_template(schema.rhs, binding, ctx)


def ref_derive(schema):
    """``derive`` by the reference: each witness step's template over a binding."""
    return lambda binding, ctx: [ref_build_template(template, binding, ctx) for *_, template in schema.witness]


def test_build_and_derive_agree_on_sweep_redexes():
    built = 0
    for t in SWEEP[::3]:
        for node in subterms(t):
            for schema in GROUPOID_COMPLETE.schemas:
                binding = schema.match(node)
                if binding is not None:
                    assert_same(schema.build, ref_build(schema), binding, TRIANGLE)
                    assert_same(schema.derive, ref_derive(schema), binding, TRIANGLE)
                    built += 1 + len(schema.witness)
    assert built > 1000


def test_build_and_derive_reject_alike():
    """Over a bad binding they raise as the reference does; a bad template is rejected when its schema is built."""
    bad = Trans(Atom("r"), Atom("r"))
    for template in (RReflAtSource("x"), RReflAtTarget("x"), PTrans(PVar("x"), RReflAtTarget("x"))):
        schema = RuleSchema("v", PSym(PVar("x")), template, witness=(("ss", (), FORWARD, template),) * 2)
        for binding in ({"x": bad}, {}):
            assert_same(schema.build, ref_build(schema), binding, TRIANGLE)
            assert_same(schema.derive, ref_derive(schema), binding, TRIANGLE)
    for template in (Atom("r"), "x", None, PSym(42), PVar("y"), PTrans(PVar("x"), RReflAtSource("y"))):
        rejected = outcome(ref_build_template, template, {"x": Atom("r")}, TRIANGLE)
        assert rejected[0] == "raise", template
        assert outcome(RuleSchema, "v", PSym(PVar("x")), template) == rejected
        witness = (("ss", (), FORWARD, PVar("x")), ("ss", (), FORWARD, template))
        assert outcome(RuleSchema, "v", PSym(PVar("x")), PVar("x"), witness) == rejected


RULE_NAMES = ["tt", "tt1", "tt2", "tt3", "st", "st2", "TT", "t t", "", "2", "ttx2", "tté", "nope", "nope2"]


@pytest.mark.parametrize("rs", [PAPER7, GROUPOID_COMPLETE], ids=lambda rs: rs.name)
def test_find_resolves_and_rejects_as_before(rs):
    """A memoized success changes neither later results nor any error."""
    for _ in range(2):
        for name, lv in itertools.product(RULE_NAMES, (1, 2, 3)):
            assert_same(rs.find, lambda n, v: ref_find(rs, n, v), name, lv)



# --- references: root-class candidates and replay by rebuilding ------------------


def ref_pattern_head(pattern):
    match pattern:
        case PSym():
            return Sym
        case PTrans():
            return Trans
        case PRefl():
            return Refl
        case _:
            return None


_BY_HEAD: dict = {}


def ref_by_head(rs):
    """The schemas that can match at each root class (None: any other)."""
    if rs.name not in _BY_HEAD:
        _BY_HEAD[rs.name] = {
            head: tuple(s for s in rs.schemas if ref_pattern_head(s.lhs) in (head, None))
            for head in (Sym, Trans, Refl, None)
        }
    return _BY_HEAD[rs.name]


def ref_first_match(rs, node):
    by_head = ref_by_head(rs)
    for schema in by_head.get(type(node), by_head[None]):
        binding = schema.match(node)
        if binding is not None:
            return schema, binding
    return None


def ref_contract(rs, node, ctx):
    """The first schema by root class, with its right-hand side built over its binding."""
    found = ref_first_match(rs, node)
    return found and (found[0], ref_build_template(found[0].rhs, found[1], ctx))


def ref_match_redexes(rs, t):
    by_head = ref_by_head(rs)
    lv = level(t)
    found = []

    def walk(node, pos):
        for i, child in enumerate(ref_path_children(node)):
            walk(child, pos + (i,))
        for schema in by_head.get(type(node), by_head[None]):
            if schema.match(node) is not None:
                found.append((schema.name if lv == 1 else f"{schema.name}{lv}", pos))

    walk(t, ())
    return found


def ref_replay(d, rs, ctx):
    """Replay that contracts the redex side and compares the whole result, from a well-formed start."""
    try:
        ref_endpoints(d.start, ctx)
    except PathRwError:
        return False
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


# --- the generated matchers ---------------------------------------------------------


def check_candidates(terms, ctx):
    """``contract`` and ``match_redexes`` agree with the root-class references."""
    nodes = 0
    for t in terms:
        for rs in (PAPER7, GROUPOID_COMPLETE):
            assert match_redexes(rs, t) == ref_match_redexes(rs, t)
            for node in subterms(t):
                assert outcome(rs.contract, node, ctx) == outcome(ref_contract, rs, node, ctx), node
                nodes += 1
    return nodes


def test_shape_index_agrees_on_the_triangle_sweep():
    assert check_candidates(SWEEP, TRIANGLE) > 2 * len(SWEEP)


def test_shape_index_agrees_on_congruence_formers():
    check_candidates(_lam_terms(), LAM)


def test_shape_index_agrees_on_lifted_terms():
    check_candidates(_lifted_terms(), TRIANGLE)


def check_redexes(t, ctx):
    """``redexes`` agrees with the recursive reference, and each binding is the schema's match at its position."""
    check_candidates([t], ctx)
    for rs in (PAPER7, GROUPOID_COMPLETE):
        for schema, binding, pos in redexes(rs, t):
            assert binding == schema.match(ref_subterm_at(t, pos))


@settings(max_examples=40)
@given(former_term_strategy(LAM_PATHS))
def test_redexes_agree_under_formers(t):
    assert any(type(node) in (Xi, Mu, Nu) for node in subterms(t))
    check_redexes(t, LAM_PATHS)


@settings(max_examples=40)
@given(lifted_term_strategy(TRIANGLE))
def test_redexes_agree_on_lifted_terms(t):
    assert level(t) == 2
    check_redexes(t, TRIANGLE)


def test_generated_contract_tries_schemas_by_class():
    """One generated function per rule set: a branch per root class, each schema's tests in rule-set order."""
    r, s, rho_b = Atom("r"), Atom("s"), Refl(Object(0, "b"))
    _, step = contract_once(Trans(r, rho_b), "trr", (), PAPER7, TRIANGLE)
    none = [Trans(r, s), r, rho_b, Xi("v", r), Mu("m", r), Nu(r, "n"), StepAtom(step), 5, None, "r"]
    for rs in (PAPER7, GROUPOID_COMPLETE):
        for node in none:
            assert rs.contract(node, TRIANGLE) is None and rs.matches(node) == []
        t = Trans(Trans(r, s), rho_b)
        assert rs.contract(t, TRIANGLE) == (rs.find("trr", 1), Trans(r, s))
        assert [schema.name for schema, _ in rs.matches(t)] == ["trr", "tt"]
        assert [schema.name for schema, _ in rs.matches(Sym(Sym(r)))] == ["ss"]
        header = ", ".join(f"s{k} {schema.name}" for k, schema in enumerate(rs.schemas))
        assert f"# rule set {rs.name!r}: {header}\n" in rs.source
        by_class = [[schema.name for schema in rs.schemas if type(schema.lhs) is head] for head in (PSym, PTrans)]
        assert re.findall(r"  # (\w+)$", rs.source, re.M) == 2 * (by_class[0] + by_class[1])
    lifted = Sym(Trans(StepAtom(step), StepAtom(step)))
    assert PAPER7.contract(lifted, TRIANGLE) is None and PAPER7.contract(Sym(Trans(r, s)), TRIANGLE) is None
    st, built = GROUPOID_COMPLETE.contract(lifted, TRIANGLE)
    assert st is GROUPOID_COMPLETE.find("st2", 2) and built == Trans(Sym(StepAtom(step)), Sym(StepAtom(step)))


# --- the nonlinear tests of tr, tsr, trc and tsrc -----------------------------------


def ref_bind(pattern, t, binding):
    """``pattern`` matched at ``t``, a repeated metavariable by plain ``==``: the binding extended, or None."""
    match pattern:
        case PVar(name):
            if name not in binding:
                return {**binding, name: t}
            return binding if binding[name] == t else None
        case PRefl(obj_var):
            return ref_bind(PVar(obj_var), t.obj, binding) if type(t) is Refl else None
        case PSym(body):
            return ref_bind(body, t.body, binding) if type(t) is Sym else None
        case PTrans(left, right):
            found = ref_bind(left, t.left, binding) if type(t) is Trans else None
            return None if found is None else ref_bind(right, t.right, found)


def ref_bind_contract(rs, node, ctx):
    for schema in rs.schemas:
        binding = ref_bind(schema.lhs, node, {})
        if binding is not None:
            return schema, ref_build_template(schema.rhs, binding, ctx)
    return None


# Each rule with a repeated metavariable, as the redex that puts x at its first occurrence and y at its second.
NONLINEAR = {
    "tr": lambda x, y: Trans(x, Sym(y)),
    "tsr": lambda x, y: Trans(Sym(x), y),
    "trc": lambda x, y: Trans(x, Trans(Sym(y), Atom("s"))),
    "tsrc": lambda x, y: Trans(Sym(x), Trans(y, Atom("s"))),
}


def _operands():
    """Pairs (x, y): the same object, equal but built apart, of one class but unequal, and of different classes."""
    r = Atom("r")
    _, step = contract_once(Sym(Sym(r)), "ss", (), PAPER7, TRIANGLE)
    pool = [r, Atom("s"), Sym(r), Trans(r, Atom("s")), Refl(Object(0, "a")), Xi("v", r), Mu("m", r), Nu(r, "n")]
    pool += [StepAtom(step), Sym(StepAtom(step)), Trans(Sym(r), Refl(Object(0, "a")))]
    return [(x, y) for x in pool for y in pool + [_copy(x)]]


def test_nonlinear_tests_agree_with_plain_equality():
    outcomes = {True: 0, False: 0}
    for rule, redex in NONLINEAR.items():
        for x, y in _operands():
            node = redex(x, y)
            for rs in (PAPER7, GROUPOID_COMPLETE):
                expected = [schema.name for schema in rs.schemas if ref_bind(schema.lhs, node, {}) is not None]
                assert [schema.name for schema, _ in rs.matches(node)] == expected, node
                assert outcome(rs.contract, node, TRIANGLE) == outcome(ref_bind_contract, rs, node, TRIANGLE), node
                for schema in rs.schemas:
                    assert schema.match(node) == ref_bind(schema.lhs, node, {}), (schema.name, node)
            matched = GROUPOID_COMPLETE.find(rule, 1).match(node) is not None
            assert matched == (x == y)
            outcomes[matched] += 1
    assert min(outcomes.values()) > 40


def test_nonlinear_tests_compare_only_equal_classes(monkeypatch):
    """No ``__eq__`` runs for the same object or for two classes; one runs for equal terms built apart."""
    calls = []
    for cls in (Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom):
        eq = cls.__eq__
        monkeypatch.setattr(cls, "__eq__", lambda self, other, eq=eq: calls.append(type(self)) or eq(self, other))
    for rule, redex in NONLINEAR.items():
        schema = GROUPOID_COMPLETE.find(rule, 1)
        for x, y in _operands():
            calls.clear()
            schema.match(redex(x, y))
            if x is y or type(x) is not type(y):
                assert calls == [], (rule, x, y)
            else:
                assert calls[0] is type(x), (rule, x, y)


@pytest.mark.parametrize("rule", list(NONLINEAR))
def test_nonlinear_reverse_steps_over_non_terms(rule):
    """A reverse step whose redex holds non-terms at the repeated metavariable.

    Under tr and tsr it replays False: the contractum reads the non-term's
    ends. trc and tsrc erase it unread, so it replays True if the two are
    one object or of one class and equal (ROADMAP item 10), and False for
    two classes that ``==`` would call equal, such as 5 and 5.0.
    """
    start = {"tr": Refl(Object(0, "a")), "tsr": Refl(Object(0, "b")), "trc": Atom("s"), "tsrc": Atom("s")}[rule]
    pairs = [(5, 5), (5, 5.0), (1, True), ("r", "r"), (None, None), (Atom("r"), "r"), (Object(0, "a"), Object(0, "a"))]
    for x, y in pairs + [(Atom("r"), Atom("r"))]:
        step = RewriteStep(rule, (), REVERSE, start, NONLINEAR[rule](x, y), 1)
        same = x is y or type(x) is type(y) and x == y
        expected = same and (type(x) is Atom or rule in ("trc", "tsrc"))
        assert replay_derivation(Derivation(start, (step,), 1), GROUPOID_COMPLETE, TRIANGLE) is expected, (x, y)


# --- replay without rebuilding ------------------------------------------------------


def _copy(t):
    """An equal term that shares no node with ``t``."""
    children = ref_path_children(t)
    for i, child in enumerate(children):
        t = ref_with_child(t, i, _copy(child))
    return t if children else dataclasses.replace(t)


def _retyped(node):
    """A node of another class that keeps the first path child."""
    match node:
        case Trans(left, _):
            return Mu("m", left)
        case Sym(body):
            return Xi("v", body)
        case Xi(var, body):
            return Mu(var, body)
        case Mu(func, body):
            return Nu(body, func)
        case Nu(body, arg):
            return Sym(body)
    return Sym(node)


def _relabelled(node):
    match node:
        case Xi(var, body):
            return Xi(var + "'", body)
        case Mu(func, body):
            return Mu(func + "'", body)
        case Nu(body, arg):
            return Nu(body, arg + "'")
    return None


def _with_side(step, side, t):
    """``step`` with its redex side (0) or produced side (1) replaced by ``t``."""
    forward = step.direction == FORWARD
    before, after = (t, step.after) if (side == 0) == forward else (step.before, t)
    return dataclasses.replace(step, before=before, after=after)


def _mutants(step):
    pos, rule = step.position, step.rule
    for p in {pos[:-1], pos + (0,), pos + (1,), pos + (0,) * 40, pos + (-1,), (-1,) + pos}:
        yield dataclasses.replace(step, position=p)
    if pos:
        for delta in (-1, 1):
            yield dataclasses.replace(step, position=pos[:-1] + (pos[-1] + delta,))
        yield dataclasses.replace(step, position=(-1,) + pos[1:])
    base = rule.rstrip("0123456789")
    for name in {base, base + "1", base + "2", base + "3", "tt", "st", "sr", "nope"} - {rule}:
        yield dataclasses.replace(step, rule=name)
    sides = [step.before, step.after] if step.direction == FORWARD else [step.after, step.before]
    for k in range(len(pos) + 1):
        spine = pos[:k]
        nodes = [subterm_at(t, spine) for t in sides]
        edits = [_retyped]
        if k == len(pos):  # the contractum, or the redex
            edits += [_copy, Sym, lambda node: nodes[1] if node is nodes[0] else nodes[0]]
        else:
            edits.append(_relabelled)
            if type(nodes[0]) is Trans:
                off = 1 - pos[k]
                for edit in (_copy, Sym):
                    edits.append(lambda node, edit=edit: with_child(node, off, edit(ref_path_children(node)[off])))
        for edit in edits:
            new = [edit(node) for node in nodes]
            for side in (0, 1):
                if new[side] is not None:
                    yield _with_side(step, side, replace_at(sides[side], spine, new[side]))
            if None not in new:
                both = _with_side(step, 0, replace_at(sides[0], spine, new[0]))
                yield _with_side(both, 1, replace_at(sides[1], spine, new[1]))


def _witnesses():
    """(derivation, rule set, context): normal-form traces and decision witnesses."""
    rng = random.Random(11)
    cases = [(t, TRIANGLE) for t in rng.sample(SWEEP, 40)]
    cases += [(t, LAM) for t in _lam_terms() if outcome(endpoints, t, LAM)[0] == "ok"]
    cases += [(t, TRIANGLE) for t in _lifted_terms()[::3]]
    for t, ctx in cases:
        for rs in (PAPER7, GROUPOID_COMPLETE):
            nf, d = normalize(t, rs, ctx)
            yield d, rs, ctx
            verdict = decide_rw_equal(nf, t, rs, ctx)
            yield verdict.witness, rs, ctx


def test_replay_agrees_with_rebuilding_on_mutated_witnesses():
    verdicts = {True: 0, False: 0}
    kinds = set()
    for d, rs, ctx in _witnesses():
        assert replay_derivation(d, rs, ctx) and ref_replay(d, rs, ctx)
        for step in d.steps:
            kinds.update(type(subterm_at(step.before, step.position[:k])) for k in range(len(step.position)))
            for mutant in _mutants(step):
                one = Derivation(mutant.before, (mutant,), d.level)
                got = outcome(replay_derivation, one, rs, ctx)
                assert got == outcome(ref_replay, one, rs, ctx), mutant
                verdicts[got[1]] += 1
    assert {Trans, Sym, Xi, Mu, Nu} <= kinds
    assert verdicts[True] > 1000 and verdicts[False] > 1000
