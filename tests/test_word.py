"""Reduced words whose atom letters are held by their declarations.

``ref_word`` below is ``oracle.word`` as it was written before: a walk that
pushes both children of each Trans, builds a fresh ``Letter`` for every atom
leaf that does not cancel, and cancels by key and ``==``. ``word`` now takes
each atom's two letters from its ``AtomDecl`` and cancels them by identity.
On every term set here both must return equal words, or raise the same error
type with the same text and position. The other tests pin the sharing: one
letter object per atom name and orientation, read afresh from a replaced
declaration, outside the declaration's ``==``, ``hash`` and ``repr``, and
built at most once however long the term.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from pathrw.errors import UnknownAtom, UnresolvedLambda
from pathrw.oracle import Letter, ReducedWord, enumerate_terms, read_back, word
from pathrw.terms import (
    Atom, AtomDecl, Context, Mu, Nu, Object, Refl, StepAtom, Sym, Trans, Xi, applied_lambda, endpoints,
    former_endpoints,
)

from conftest import former_term_strategy, large_term_strategy, lifted_term_strategy, raw_trees
from test_fold import ILL_FORMED_LEAVES, raised
from test_kernel import LAM_PATHS, TRIANGLE, subterms


def ref_word(t, ctx):
    """The reduced word by the walk that built a fresh letter per atom leaf; raises what ``endpoints`` raises."""
    root = t
    out = []
    segments = [[0, None, None]]  # per open segment: [its start in out, first source, last target]
    todo = [(t, 1)]  # polarity +-1 walks a node; +-2 closes a former whose body is walked
    memo = {}  # atom name -> (source, target, letter key)
    while todo:
        t, pol = todo.pop()
        tp = type(t)
        if tp is Trans:
            todo += ((t.right, pol), (t.left, pol)) if pol == 1 else ((t.left, pol), (t.right, pol))
            continue
        if tp is Sym:
            todo.append((t.body, -pol))
            continue
        if tp is Atom:
            hit = memo.get(t.name)
            if hit is None:
                decl = ctx.atoms.get(t.name)
                if decl is None:
                    break
                hit = memo[t.name] = *decl.ends, ("atom", t.name)
            src, tgt, key = hit
        elif tp is Refl:
            src = tgt = t.obj
            key = None
            if type(src) is not Object:  # no object
                break
            if src.level < 0 or src.level == 0 and isinstance(src.payload, str) and src.payload not in ctx.elements:
                break
        elif tp is StepAtom:
            step = t.step
            try:
                src, tgt, key = Object(step.level, step.before), Object(step.level, step.after), ("step", step)
            except AttributeError:  # no step
                break
        elif tp is Xi or tp is Mu or tp is Nu:
            if pol == 1 or pol == -1:
                segments.append([len(out), None, None])
                todo += ((t, 2 * pol), (t.body, 1))
                continue
            pol //= 2
            start, base, end = segments.pop()
            body = read_back(ReducedWord(base, tuple(out[start:])))
            del out[start:]
            key = ("xi", t.var, body) if tp is Xi else ("mu", t.func, body) if tp is Mu else ("nu", t.arg, body)
            try:
                src, tgt = former_endpoints(t, applied_lambda(t, ctx), (base, end), ctx)
            except UnresolvedLambda:
                break
        else:
            break
        if pol == -1:
            src, tgt = tgt, src
        segment = segments[-1]
        if segment[1] is None:
            segment[1] = src
        elif segment[2] is not src and segment[2] != src:
            break
        segment[2] = tgt
        if key is not None:
            if len(out) > segment[0] and (out[-1].gen is key or out[-1].gen == key) and out[-1].orient == -pol:
                out.pop()
            else:
                out.append(Letter(key, pol, src, tgt))
    else:
        return ReducedWord(segments[0][1], tuple(out))
    endpoints(root, ctx)
    raise RuntimeError("internal error: word rejected a term that endpoints accepts")


def check_words(terms, ctx):
    """``word`` gives ``ref_word``'s word, or its exception; returns how many raise."""
    rejected = 0
    for t in terms:
        got = raised(word, t, ctx)
        assert got == raised(ref_word, t, ctx), t
        rejected += got[0] == "raise"
    return rejected


def el(name):
    return Object(0, name)


# --- the differential gate ------------------------------------------------------


def test_words_agree_on_the_enumeration(ctx_rs):
    terms = list(enumerate_terms(ctx_rs, 8))
    assert len(terms) > 3000 and check_words(terms, ctx_rs) == 0


@settings(max_examples=30)
@given(large_term_strategy(TRIANGLE), former_term_strategy(LAM_PATHS), lifted_term_strategy(TRIANGLE))
def test_words_agree_on_generated_terms(large, former, lifted):
    for t, ctx in ((large, TRIANGLE), (former, LAM_PATHS), (lifted, TRIANGLE)):
        nodes = list(subterms(t))
        assert check_words(nodes, ctx) == 0
        # the same nodes under a context that lacks their first atom, or flips it
        names = [node.name for node in nodes if type(node) is Atom]
        if names:
            decl = ctx.atoms[names[0]]
            flipped = {**ctx.atoms, names[0]: AtomDecl(decl.target, decl.source, decl.type_name)}
            for atoms in ({k: v for k, v in ctx.atoms.items() if k != names[0]}, flipped):
                check_words(nodes, Context(ctx.base_types, ctx.elements, ctx.lambda_elements, atoms))


def test_words_agree_on_ill_formed_trees():
    trees = list(raw_trees(ILL_FORMED_LEAVES, 6))
    assert check_words(trees, TRIANGLE) > len(trees) // 2


# --- letters held by the declaration ------------------------------------------------


def test_atom_letters_are_one_object_per_name_and_orientation(ctx_rs):
    r, s = Atom("r"), Atom("s")
    t = Trans(r, s)
    first, again, inverted = word(t, ctx_rs), word(t, ctx_rs), word(Sym(t), ctx_rs)
    assert first == again == ref_word(t, ctx_rs) and inverted == ref_word(Sym(t), ctx_rs)
    assert all(x is y for x, y in zip(first.letters, again.letters, strict=True))
    (forward_r, inverse_r), (forward_s, inverse_s) = ctx_rs.atoms["r"].letters["r"], ctx_rs.atoms["s"].letters["s"]
    assert first.letters[0] is forward_r and first.letters[1] is forward_s
    assert inverted.letters[0] is inverse_s and inverted.letters[1] is inverse_r
    assert forward_r == Letter(("atom", "r"), 1, el("a"), el("b"))
    assert inverse_r == Letter(("atom", "r"), -1, el("b"), el("a"))
    # one declaration under two names: each name has its own letters, which do not cancel each other
    loop = AtomDecl("a", "a", "A")
    loops = Context(("A",), {"a": "A"}, {}, {"u": loop, "v": loop})
    t = Trans(Atom("u"), Sym(Atom("v")))
    assert word(t, loops) == ref_word(t, loops) and len(word(t, loops).letters) == 2
    assert sorted(loop.letters) == ["u", "v"] and loop.letters["u"][0] != loop.letters["v"][0]


def test_atom_letters_are_read_afresh_on_every_call():
    """One term under two contexts whose ``r`` differs, and under one context changed between calls."""
    r, s = Atom("r"), Atom("s")
    t = Trans(Trans(r, Sym(r)), Trans(r, s))
    flipped = Context(TRIANGLE.base_types, TRIANGLE.elements, {}, {**TRIANGLE.atoms, "r": AtomDecl("c", "b", "A")})
    changing = Context(TRIANGLE.base_types, TRIANGLE.elements, {}, dict(TRIANGLE.atoms))
    for ctx in (TRIANGLE, flipped, TRIANGLE, changing):
        w = word(t, ctx)
        assert w == ref_word(t, ctx) and w.letters[0] is ctx.atoms["r"].letters["r"][0]
    expected = [(("atom", "r"), el("c"), el("b")), (("atom", "s"), el("b"), el("c"))]
    assert [(x.gen, x.src, x.tgt) for x in word(t, flipped).letters] == expected
    given_letters = TRIANGLE.atoms["r"].letters["r"]
    changing.atoms["r"] = AtomDecl("c", "b", "A")  # as the script parser writes into a context
    w = word(t, changing)
    assert w == word(t, flipped) == ref_word(t, changing) and w.letters[0] is changing.atoms["r"].letters["r"][0]
    assert w.letters[0] is not flipped.atoms["r"].letters["r"][0]
    assert TRIANGLE.atoms["r"].letters["r"] is given_letters and word(t, TRIANGLE).letters[0] is given_letters[0]
    del changing.atoms["r"]
    with pytest.raises(UnknownAtom, match=r"^unknown atom 'r' at position 0\.0$"):
        word(t, changing)


def test_atom_decl_holds_its_letters_outside_its_fields():
    """``letters`` is no argument and takes no part in ``==``, ``hash`` or ``repr``.

    A copy, a pickle or a replacement starts it empty, and a word over it leaves the original's alone.
    """
    decl = AtomDecl("a", "b", "A")
    assert decl.letters == {}
    ctx = Context(("A",), {"a": "A", "b": "A"}, {}, {"r": decl})
    w = word(Sym(Atom("r")), ctx)
    a, b = decl.ends
    assert decl.letters == {"r": (Letter(("atom", "r"), 1, a, b), Letter(("atom", "r"), -1, b, a))}
    assert w.letters[0] is decl.letters["r"][1]
    assert repr(decl) == "AtomDecl(source='a', target='b', type_name='A', tag='declared')"
    assert decl == AtomDecl("a", "b", "A") and hash(decl) == hash(AtomDecl("a", "b", "A"))
    with pytest.raises(TypeError):
        AtomDecl("a", "b", "A", letters={})
    with pytest.raises(dataclasses.FrozenInstanceError):
        decl.letters = {}
    pair = decl.letters["r"]
    for same in (copy.copy(decl), copy.deepcopy(decl), pickle.loads(pickle.dumps(decl))):
        assert same == decl and same.ends == decl.ends and same.letters == {} and same.letters is not decl.letters
        copied = Context(ctx.base_types, ctx.elements, {}, {"r": same, "q": same})
        for t in (Sym(Atom("r")), Trans(Atom("q"), Sym(Atom("r")))):
            assert word(t, copied) == ref_word(t, copied) and word(t, copied).letters[-1] is same.letters["r"][1]
        assert sorted(same.letters) == ["q", "r"] and decl.letters == {"r": pair} and decl.letters["r"] is pair
    for fresh in (dataclasses.replace(decl), dataclasses.replace(decl, source="b", target="a")):
        assert fresh.letters == {} and fresh.letters is not decl.letters
        swapped = Context(ctx.base_types, ctx.elements, {}, {"r": fresh})
        assert word(Atom("r"), swapped).letters == (Letter(("atom", "r"), 1, *fresh.ends),)
    assert [f.name for f in dataclasses.fields(decl) if f.init] == ["source", "target", "type_name", "tag"]


# --- counted work ------------------------------------------------------------------


def test_word_builds_each_atom_letter_once(ctx_rs, monkeypatch):
    """2,002 leaves: ``r``, 1,000 rounds of ``s, sigma(s)``, then ``sigma(r)``. Four letters, built on the first call."""
    r, s = Atom("r"), Atom("s")
    t = r
    for _ in range(1000):
        t = Trans(Trans(t, s), Sym(s))
    t = Trans(t, Sym(r))
    built = []
    real = Letter.__init__
    monkeypatch.setattr(Letter, "__init__", lambda self, *args: built.append(args) or real(self, *args))
    assert word(t, ctx_rs) == ReducedWord(el("a"), ()) and len(built) <= 4
    built.clear()
    assert word(t, ctx_rs) == ReducedWord(el("a"), ()) and built == []
