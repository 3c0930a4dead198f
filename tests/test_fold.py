"""The term layer's explicit-stack walks against the recursive code they replace.

The references below are ``validate``, ``size``, ``format_term``,
``mu_measure`` and ``format_lambda`` as they were written before: one Python
frame per node, ``validate`` re-implementing ``endpoints``. ``word`` is
checked against ``test_kernel``'s reference. On every term set here the
walks must give equal results, or raise the same error type with the same
text and position. The depth tests then run each walk, at the default
recursion limit, on terms far deeper than that limit. The memo tests check
that what ``endpoints`` and ``word`` note of an atom lasts one call only.
"""

from __future__ import annotations

import re
import sys

import pytest

import pathrw.oracle
import pathrw.terms
from pathrw.engine import RewriteStep, contract_once, mu_measure
from pathrw.errors import (
    EndpointMismatch, PathRwError, UnknownAtom, UnknownElement, UnresolvedLambda, fmt_position,
)
from pathrw.lam import Abs, App, Var, format_lambda
from pathrw.oracle import read_back, word
from pathrw.rules import PAPER7
from pathrw.terms import (
    Atom, AtomDecl, Context, Mu, Nu, Object, Refl, StepAtom, Sym, Trans, Violation, WellFormednessReport, Xi,
    endpoints, format_term, level, path_children, size, validate,
)

from conftest import lambda_terms_up_to, raw_trees
from test_kernel import (
    LAM, NON_TERMS, SWEEP, TRIANGLE, _lam_terms, _lifted_terms, checked_ref_word, ref_endpoints, ref_level, subterms,
)

# --- references: the recursive walks -------------------------------------------


def ref_size(t):
    match t:
        case Atom() | Refl() | StepAtom():
            return 1
        case Sym(body) | Xi(_, body) | Mu(_, body) | Nu(body, _):
            return 1 + ref_size(body)
        case Trans(left, right):
            return 1 + ref_size(left) + ref_size(right)
    raise TypeError(f"not a path term: {t!r}")


def ref_format_lambda(t):
    match t:
        case Var(name):
            return name
        case Abs(var, body):
            return f"\\{var}. {ref_format_lambda(body)}"
        case App(func, arg):
            func_s = ref_format_lambda(func)
            if isinstance(func, Abs):
                func_s = f"({func_s})"
            arg_s = ref_format_lambda(arg)
            if isinstance(arg, (Abs, App)):
                arg_s = f"({arg_s})"
            return f"{func_s} {arg_s}"
    raise TypeError(f"not a lambda term: {t!r}")


def ref_format_object(obj):
    payload = obj.payload
    if isinstance(payload, str):
        return payload
    if isinstance(payload, (Var, Abs, App)):
        return ref_format_lambda(payload)
    return ref_format_term(payload)


def ref_format_term(t):
    match t:
        case Atom(name):
            return name
        case Refl(obj):
            return f"rho({ref_format_object(obj)})"
        case Sym(body):
            return f"sigma({ref_format_term(body)})"
        case Trans(left, right):
            return f"tau({ref_format_term(left)}, {ref_format_term(right)})"
        case Xi(var, body):
            return f"xi({var}, {ref_format_term(body)})"
        case Mu(func, body):
            return f"mu({func}, {ref_format_term(body)})"
        case Nu(body, arg):
            return f"nu({ref_format_term(body)}, {arg})"
        case StepAtom(step):
            return f"step[{step.rule}@{fmt_position(step.position)}:{step.direction[0]}]"
    raise TypeError(f"not a path term: {t!r}")


def ref_mu_measure(t):
    def go(node):
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


def ref_validate(t, ctx):
    violations = []

    def note(kind, pos, message):
        violations.append(Violation(kind, pos, message))

    def go(t, pos):
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
                    if ref_level(obj.payload) != obj.level:
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
                    message = f"cannot chain: {ref_format_object(lends[1])} != {ref_format_object(rends[0])}"
                    note("endpoint-mismatch", pos, message)
                    return None
                return lends[0], rends[1]
            case Xi() | Mu() | Nu():
                try:
                    return ref_endpoints(t, ctx, pos)
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
                if ref_level(step.before) != step.level:
                    note("level-mismatch", pos, "recorded step level disagrees with its terms")
                    return None
                return Object(step.level, step.before), Object(step.level, step.after)
        note("bad-term", pos, f"not a path term: {t!r}")
        return None

    go(t, ())
    return WellFormednessReport(tuple(violations))


# --- comparison ----------------------------------------------------------------


def outcome(f, *args):
    """What a call gives: ("ok", value) or ("raise", type, text, position)."""
    try:
        return ("ok", f(*args))
    except (PathRwError, TypeError) as exc:
        return ("raise", type(exc), str(exc), getattr(exc, "position", None))


def check_walks(terms, ctx):
    """Every walk agrees with its reference on every term; returns how many validate rejects."""
    rejected = 0
    for t in terms:
        for new, old, args in (
            (validate, ref_validate, (t, ctx)),
            (endpoints, ref_endpoints, (t, ctx)),
            (word, checked_ref_word, (t, ctx)),
            (size, ref_size, (t,)),
            (format_term, ref_format_term, (t,)),
            (mu_measure, ref_mu_measure, (t,)),
        ):
            assert outcome(new, *args) == outcome(old, *args), (new.__name__, t)
        report = outcome(validate, t, ctx)
        rejected += report[0] == "ok" and not report[1].ok
    return rejected


def test_walks_agree_on_the_triangle_sweep():
    assert check_walks(SWEEP, TRIANGLE) == 0


def test_walks_agree_on_congruence_formers():
    terms = [node for t in _lam_terms() for node in subterms(t)]
    assert check_walks(terms, LAM) > 0


def test_walks_agree_on_lifted_terms():
    terms = [node for t in _lifted_terms() for node in subterms(t)]
    assert {level(t) for t in terms} == {2, 3}
    assert check_walks(terms, TRIANGLE) == 0


BAD_LEAVES = [Atom("r"), Atom("s"), Atom("zap"), Refl(Object(0, "a")), Refl(Object(0, "q"))]


def test_walks_agree_on_ill_formed_trees():
    trees = list(raw_trees(BAD_LEAVES, 5))
    assert check_walks(trees, TRIANGLE) > len(trees) // 2


def _ill_formed_formers():
    """Formers over ill-formed bodies, some nested, some unresolvable; and formers inside chains."""
    al, be = Atom("al"), Atom("be")
    bodies = [Trans(al, al), Trans(be, al), Trans(al, Atom("zap")), Refl(Object(0, "q")), Sym(Trans(al, Trans(be, be)))]
    bodies += [Trans(Refl(Object(0, "q")), al), Trans(Xi("v", al), be), Trans(Refl(Object(1, al)), al)]
    out = []
    for body in bodies:
        for former in (Xi("v", body), Mu("m", body), Nu(body, "n"), Mu("z", body), Nu(body, "k")):
            out += [former, Xi("w", former), Mu("n", former), Nu(former, "m"), Trans(former, al), Sym(former)]
            out += [Trans(Xi("w", former), Trans(al, be)), Xi(None, former), Xi("w", Trans(Xi(None, al), be))]
    return out


def test_walks_agree_on_ill_formed_formers():
    terms = _ill_formed_formers()
    assert check_walks(terms, LAM) == len(terms)
    kinds = {v.kind for t in terms for v in validate(t, LAM).violations}
    assert kinds == {"endpoint-error", "unresolved-lambda"}


def _ill_formed_tower():
    """Level-n objects and recorded steps whose insides ``validate`` checks and ``endpoints`` does not."""
    r = Atom("r")
    nf, step = contract_once(Sym(Sym(r)), "ss", (), PAPER7, TRIANGLE)
    good = StepAtom(step)
    bogus = [
        RewriteStep("sr", (), "forward", r, Refl(Object(0, "a")), 1),  # endpoints not preserved
        RewriteStep("ss", (), "forward", Sym(Sym(r)), nf, 2),  # level disagrees with its terms
        RewriteStep("ss", (), "forward", Trans(r, r), Atom("zap"), 1),  # ill-formed on both sides
        RewriteStep("ss", (), "forward", Sym(Sym(Atom("zap"))), Atom("zap"), 1),
        RewriteStep("ss", (), "forward", 42, r, 1),
    ]
    objects = [
        Object(1, r), Object(2, r), Object(1, Trans(r, r)), Object(1, Sym(Trans(r, r))), Object(1, 42),
        Object(1, "a"), Object(2, good), Object(2, Sym(good)), Object(1, Refl(Object(0, "q"))),
        Object(2, Refl(Object(1, Trans(r, r)))), Object(3, Refl(Object(1, r))), Object(1, Abs("x", Var("x"))),
    ]
    leaves = [good, *(StepAtom(s) for s in bogus), *(Refl(obj) for obj in objects)]
    out = list(leaves)
    for leaf in leaves:
        out += [Sym(leaf), Trans(leaf, good), Trans(good, leaf), Trans(leaf, Sym(leaf)), Trans(Sym(leaf), leaf)]
        out += [Trans(Trans(leaf, Atom("zap")), leaf), StepAtom(RewriteStep("ss", (), "forward", leaf, leaf, 2))]
    return out


def test_walks_agree_on_ill_formed_objects_and_steps():
    terms = _ill_formed_tower()
    assert check_walks(terms, TRIANGLE) > len(terms) // 2
    kinds = {v.kind for t in terms for v in validate(t, TRIANGLE).violations}
    assert kinds == {
        "step-endpoints", "level-mismatch", "bad-object", "bad-term", "unknown-atom", "unknown-element", "endpoint-mismatch",
    }


@pytest.mark.parametrize("bad", NON_TERMS, ids=repr)
def test_walks_reject_non_terms_alike(bad):
    r = Atom("r")
    wrapped = [bad, Sym(bad), Trans(r, bad), Trans(Sym(bad), r), Trans(bad, Atom("zap")), Xi("v", bad)]
    wrapped += [Trans(Trans(r, Sym(r)), Trans(bad, r)), Refl(Object(1, Trans(r, bad))), Mu("m", Sym(bad))]
    for ctx in (TRIANGLE, LAM):
        check_walks(wrapped, ctx)
    assert outcome(size, bad)[1] is TypeError and outcome(format_term, bad)[1] is TypeError


def test_format_lambda_agrees_with_its_reference():
    lams = lambda_terms_up_to(4, names=("x", "y"))
    lams += [obj.payload for t in _lam_terms() if outcome(endpoints, t, LAM)[0] == "ok" for obj in endpoints(t, LAM)]
    lams += [42, None, "x", App(Var("x"), 42), Abs("x", App(None, Var("x"))), App(Abs("x", Var("x")), App("y", 3))]
    assert len(lams) > 1000
    for lam in lams:
        assert outcome(format_lambda, lam) == outcome(ref_format_lambda, lam), lam


def test_validate_ok_iff_endpoints_on_formers_and_lifted_terms():
    cases = [(t, LAM) for t in _lam_terms() + _ill_formed_formers()]
    cases += [(t, TRIANGLE) for t in _lifted_terms()]
    cases += [(Xi("v", t), LAM) for t in raw_trees([Atom("al"), Atom("be"), Refl(Object(0, "n")), Refl(Object(0, "q"))], 5)]
    verdicts = {True: 0, False: 0}
    for t, ctx in cases:
        ok = validate(t, ctx).ok
        assert ok == (outcome(endpoints, t, ctx)[0] == "ok"), t
        verdicts[ok] += 1
    assert min(verdicts.values()) > 100


# --- depth: far past the recursion limit ------------------------------------------

LINKS = (Atom("r"), Atom("s"), Sym(Atom("u")))  # a -> b -> c -> a: the chain's word never cancels
CHAIN_LEAVES = 43_000  # with the Trans and Sym nodes, over 10^5 nodes
NEST_DEPTH = 10_000


def chain(nesting, n=CHAIN_LEAVES):
    links = [LINKS[k % 3] for k in range(n)]
    if nesting == "left":
        t = links[0]
        for link in links[1:]:
            t = Trans(t, link)
    else:
        t = links[-1]
        for link in reversed(links[:-1]):
            t = Trans(link, t)
    return t


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_walks_run_on_chains_of_a_hundred_thousand_nodes(nesting):
    assert sys.getrecursionlimit() < 10_000
    t, n = chain(nesting), CHAIN_LEAVES
    nodes = 2 * n - 1 + n // 3
    assert nodes > 100_000
    a, c = Object(0, "a"), Object(0, {0: "a", 1: "b", 2: "c"}[n % 3])
    assert endpoints(t, TRIANGLE) == (a, c)
    assert validate(t, TRIANGLE).ok
    assert size(t) == nodes
    texts = [("r", "s", "sigma(u)")[k % 3] for k in range(n)]
    if nesting == "left":
        expected = "tau(" * (n - 1) + texts[0] + "".join(f", {text})" for text in texts[1:])
        weight = sum(2 * k - 1 + k // 3 for k in range(1, n))  # the first k links: k leaves, k - 1 taus, k // 3 sigmas
    else:
        expected = "".join(f"tau({text}, " for text in texts[:-1]) + texts[-1] + ")" * (n - 1)
        weight = sum(ref_size(LINKS[k % 3]) for k in range(n - 1))
    assert format_term(t) == expected
    assert mu_measure(t) == (nodes, weight)
    w = word(t, TRIANGLE)
    letters = ((("atom", "r"), 1), (("atom", "s"), 1), (("atom", "u"), -1))
    assert [(letter.gen, letter.orient) for letter in w.letters] == [letters[k % 3] for k in range(n)]
    assert (w.source, w.target) == (a, c)


NEST_CYCLE = ("xi", "mu", "nu")


def nest(depth, bottom=Atom("al")):
    """``xi(v, mu(m, nu(xi(v, ...), n)))`` around ``bottom``, ``depth`` formers deep."""
    t = bottom
    for k in reversed(range(depth)):
        kind = NEST_CYCLE[k % 3]
        t = Xi("v", t) if kind == "xi" else Mu("m", t) if kind == "mu" else Nu(t, "n")
    return t


def nest_lambda_text(depth, core):
    """The expected text of an endpoint of ``nest(depth)`` whose innermost value renders as ``core``."""
    prefixes, suffixes = [], []
    for k in reversed(range(depth)):  # innermost first
        kind = NEST_CYCLE[k % 3]
        inner_is_abs = k == depth - 1 or NEST_CYCLE[(k + 1) % 3] == "xi"
        if kind == "xi":
            prefixes.append("\\v. ")
        elif kind == "mu":
            prefixes.append("(\\x. x) (")
            suffixes.append(")")
        elif inner_is_abs:
            prefixes.append("(")
            suffixes.append(") (\\y. y)")
        else:
            suffixes.append(" (\\y. y)")
    return "".join(reversed(prefixes)) + core + "".join(suffixes)


def test_walks_run_on_a_ten_thousand_deep_former_nest():
    t = nest(NEST_DEPTH)
    src, tgt = endpoints(t, LAM)
    assert format_lambda(src.payload) == nest_lambda_text(NEST_DEPTH, "\\x. x")
    assert format_lambda(tgt.payload) == nest_lambda_text(NEST_DEPTH, "\\y. y")
    assert validate(t, LAM).ok
    assert size(t) == NEST_DEPTH + 1
    assert mu_measure(t) == (NEST_DEPTH + 1, 0)
    opens = "".join(("xi(v, ", "mu(m, ", "nu(")[k % 3] for k in range(NEST_DEPTH))
    closes = "".join((")", ")", ", n)")[k % 3] for k in reversed(range(NEST_DEPTH)))
    assert format_term(t) == opens + "al" + closes
    w = word(t, LAM)
    assert len(w.letters) == 1 and w.letters[0].gen[:2] == ("xi", "v")
    assert format_lambda(w.source.payload) == format_lambda(src.payload)
    assert format_lambda(w.target.payload) == format_lambda(tgt.payload)
    assert format_term(read_back(w)) == format_term(t)
    bad = nest(NEST_DEPTH, Trans(Atom("al"), Atom("al")))
    assert not validate(bad, LAM).ok
    with pytest.raises(EndpointMismatch):
        endpoints(bad, LAM)


def count_endpoints_calls(monkeypatch):
    calls = []

    def counted(t, ctx, _pos=()):
        calls.append(t)
        return endpoints(t, ctx, _pos)

    monkeypatch.setattr(pathrw.oracle, "endpoints", counted)
    monkeypatch.setattr(pathrw.terms, "endpoints", counted)
    return calls


def test_word_takes_former_endpoints_from_body_words(monkeypatch):
    """A nest of formers costs ``word`` no ``endpoints`` call; an ill-formed body costs one, on the whole term, which raises."""
    calls = count_endpoints_calls(monkeypatch)
    for depth in (1, 10, 100, 1000):
        assert len(word(nest(depth), LAM).letters) == 1
    for depth in (1, 10, 100):  # the two letters' keys are compared with ==, which recurses
        assert word(Trans(nest(depth), Sym(nest(depth))), LAM).letters == ()
    assert calls == []
    bad = nest(100, Trans(Atom("al"), Refl(Object(0, "m"))))
    with pytest.raises(EndpointMismatch) as exc:
        word(bad, LAM)
    assert exc.value.position == (0,) * 100
    assert len(calls) == 1 and calls[0] is bad


# --- the atom memo: one call only -----------------------------------------------


def test_atom_ends_are_read_afresh_on_every_call():
    """One term under two contexts whose ``r`` differs, and under one context changed between calls."""
    r, s = Atom("r"), Atom("s")
    t = Trans(Trans(r, Sym(r)), Trans(r, s))
    a, b, c = (Object(0, x) for x in "abc")
    flipped = Context(TRIANGLE.base_types, TRIANGLE.elements, {}, {**TRIANGLE.atoms, "r": AtomDecl("c", "b", "A")})
    changing = Context(TRIANGLE.base_types, TRIANGLE.elements, {}, dict(TRIANGLE.atoms))
    seen = []
    for ctx in (TRIANGLE, flipped, TRIANGLE, changing):
        seen.append((endpoints(t, ctx), word(t, ctx).base, word(t, ctx).target, validate(t, ctx).ok))
        check_walks([t], ctx)
    changing.atoms["r"] = AtomDecl("c", "b", "A")  # as the script parser writes into a context
    seen.append((endpoints(t, changing), word(t, changing).base, word(t, changing).target, validate(t, changing).ok))
    check_walks([t], changing)
    as_given, as_flipped = ((a, c), a, c, True), ((c, c), c, c, True)
    assert seen == [as_given, as_flipped, as_given, as_given, as_flipped]
    assert [(x.gen, x.src, x.tgt) for x in word(t, flipped).letters] == [(("atom", "r"), c, b), (("atom", "s"), b, c)]
    del changing.atoms["r"]
    with pytest.raises(UnknownAtom, match=re.escape("unknown atom 'r' at position 0.0")):
        endpoints(t, changing)
    assert [v.position for v in validate(t, changing).violations] == [(0, 0), (0, 1, 0), (1, 0)]
    check_walks([t], changing)


MET_BEFORE = [  # each error's sides come from atom names the walk met before it
    (Trans(Trans(Atom("r"), Atom("s")), Trans(Sym(Atom("s")), Atom("zap"))), UnknownAtom, "unknown atom 'zap' at position 1.1"),
    (Trans(Trans(Atom("zap"), Sym(Atom("r"))), Trans(Atom("r"), Atom("zap"))), UnknownAtom, "unknown atom 'zap' at position 0.0"),
    (
        Trans(Trans(Atom("r"), Atom("s")), Trans(Atom("r"), Atom("r"))),
        EndpointMismatch,
        "endpoint mismatch at position 1: Object(level=0, payload='b') != Object(level=0, payload='a')",
    ),
    (
        Trans(Trans(Atom("r"), Atom("s")), Trans(Sym(Atom("s")), Trans(Sym(Atom("r")), Atom("s")))),
        EndpointMismatch,
        "endpoint mismatch at position 1.1: Object(level=0, payload='a') != Object(level=0, payload='b')",
    ),
]


@pytest.mark.parametrize("t, error, text", MET_BEFORE, ids=["unknown-at-1.1", "unknown-twice", "mismatch-at-1", "mismatch-at-1.1"])
def test_errors_from_atoms_met_before_keep_their_text_and_position(t, error, text):
    """Pinned from the walks as they were before the memo; ``validate`` notes every occurrence."""
    for walk in (endpoints, word):
        with pytest.raises(error) as caught:
            walk(t, TRIANGLE)
        assert type(caught.value) is error and str(caught.value) == text
    assert check_walks([t], TRIANGLE) == 1
