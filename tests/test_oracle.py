"""Reduced-word oracle: word computation, cancellation, enumeration,
confluence experiments, and the derivable-extension certificates."""

from __future__ import annotations

import hashlib
import itertools
import sys

import pytest
from hypothesis import given

from pathrw.engine import (
    Equal,
    canonical_derivation,
    derivation_to_path,
    contract_once,
    decide_rw_equal,
    normalize,
    replay_derivation,
)
from pathrw.rules import GROUPOID_COMPLETE, PAPER7, contractions, match_redexes
from pathrw.errors import EndpointMismatch, PathRwError, UnknownAtom, UnknownElement
from pathrw.oracle import (
    Letter,
    Peak,
    ReducedWord,
    check_confluence,
    enumerate_terms,
    oracle_equal,
    read_back,
    word,
)
from pathrw.terms import (
    Atom,
    AtomDecl,
    Context,
    Mu,
    Nu,
    Object,
    Refl,
    Sym,
    Trans,
    Xi,
    endpoints,
    format_term,
    size,
)
from pathrw.lam import Abs, Var

from conftest import term_strategy
from test_kernel import ref_word


def el(name):
    return Object(0, name)


# --- word --------------------------------------------------------------------


def test_word_cancels_inverse_pair(ctx_r):
    w = word(Trans(Atom("r"), Sym(Atom("r"))), ctx_r)
    assert w.letters == ()
    assert w.base == el("a")


def test_word_refl_is_empty_at_its_object(ctx_r):
    w = word(Refl(el("a")), ctx_r)
    assert w.letters == () and w.base == el("a")
    assert word(Refl(el("a")), ctx_r) != word(Refl(el("b")), ctx_r)


def test_word_cancellation_inside_chain(ctx_rs):
    t = Trans(Trans(Atom("r"), Atom("s")), Sym(Atom("s")))
    w = word(t, ctx_rs)
    assert [(l.gen, l.orient) for l in w.letters] == [(("atom", "r"), 1)]


def test_word_orientation_swaps_endpoints(ctx_r):
    w = word(Sym(Atom("r")), ctx_r)
    (letter,) = w.letters
    assert letter.orient == -1
    assert (letter.src, letter.tgt) == (el("b"), el("a"))
    assert w.base == el("b")


def test_word_raises_what_endpoints_raises(ctx_rs):
    r, s = Atom("r"), Atom("s")
    with pytest.raises(UnknownAtom, match=r"^unknown atom 'zap' at position 1\.1$"):
        word(Trans(r, Trans(s, Atom("zap"))), ctx_rs)
    for bad, kind, pos in ((Sym(Trans(r, Refl(el("c")))), EndpointMismatch, (0,)), (Trans(Refl(el("q")), r), UnknownElement, (0,))):
        with pytest.raises(kind) as expected:
            endpoints(bad, ctx_rs)
        with pytest.raises(kind) as got:
            word(bad, ctx_rs)
        assert str(got.value) == str(expected.value) and got.value.position == expected.value.position == pos


LOOPS = Context(("A",), {"a": "A"}, {}, {"u": AtomDecl("a", "a", "A"), "v": AtomDecl("a", "a", "A")})


def growing_nest(k):
    """``w_k = sigma(tau(w_(k-1), v))`` with ``w_0 = u``: Sym and Trans alternate over a growing word."""
    t = Atom("u")
    for _ in range(k):
        t = Sym(Trans(t, Atom("v")))
    return t


def growing_nest_letters(k):
    """The closed form: ``w_2m = v^-m u v^m`` and ``w_2m+1 = v^-(m+1) u^-1 v^m``."""
    m, odd = divmod(k, 2)
    u, v = ("atom", "u"), ("atom", "v")
    return [(v, -1)] * (m + odd) + [(u, -1 if odd else 1)] + [(v, 1)] * m


def test_word_runs_on_a_hundred_thousand_link_growing_nest():
    assert sys.getrecursionlimit() < 10_000
    for k in range(31):
        t = growing_nest(k)
        w = word(t, LOOPS)
        assert [(letter.gen, letter.orient) for letter in w.letters] == growing_nest_letters(k)
        assert w == ref_word(t, LOOPS)
    w = word(growing_nest(100_000), LOOPS)
    assert [(letter.gen, letter.orient) for letter in w.letters] == growing_nest_letters(100_000)
    assert (w.source, w.target) == (el("a"), el("a"))


# --- oracle_equal ------------------------------------------------------------


def test_oracle_equal_examples(ctx_fan):
    lhs = Trans(Atom("r"), Trans(Sym(Atom("r")), Atom("s")))
    assert oracle_equal(lhs, Atom("s"), ctx_fan)
    assert not oracle_equal(Atom("r"), Sym(Atom("r")), ctx_fan)
    assert oracle_equal(lhs, lhs, ctx_fan)


def test_oracle_equal_rejects_ill_chained_terms(ctx_r):
    bad = Trans(Atom("r"), Atom("r"))
    with pytest.raises(EndpointMismatch) as exc:
        oracle_equal(bad, bad, ctx_r)
    assert exc.value.position == ()


def test_oracle_invariant_under_every_contraction(ctx_rs):
    for t in enumerate_terms(ctx_rs, 8):
        w = word(t, ctx_rs)
        for rule, pos in match_redexes(PAPER7, t):
            contractum, _ = contract_once(t, rule, pos, PAPER7, ctx_rs)
            assert word(contractum, ctx_rs) == w


def test_oracle_invariant_under_extension_contractions(ctx_rs):
    for t in enumerate_terms(ctx_rs, 7):
        w = word(t, ctx_rs)
        for rule, pos in match_redexes(GROUPOID_COMPLETE, t):
            contractum, _ = contract_once(t, rule, pos, GROUPOID_COMPLETE, ctx_rs)
            assert word(contractum, ctx_rs) == w


# --- congruence formers as opaque generators ---------------------------------

_LAM_CTX = Context(
    ("F",),
    {"m": "F", "n": "F", "k": "F"},
    {"m": Abs("x", Var("x")), "n": Abs("y", Var("y")), "k": Var("z")},
    {
        "al": AtomDecl("m", "n", "F", "alpha"),
        "be": AtomDecl("n", "k", "F"),
    },
)


def test_former_letters_cancel_with_their_own_inverse():
    t = Trans(Xi("v", Atom("al")), Sym(Xi("v", Atom("al"))))
    assert word(t, _LAM_CTX).letters == ()


def test_sym_under_former_stays_distinct():
    inside = Xi("v", Sym(Atom("al")))
    outside = Sym(Xi("v", Atom("al")))
    assert not oracle_equal(inside, outside, _LAM_CTX)


def test_former_keys_use_canonical_bodies():
    straight = Mu("m", Atom("al"))
    redundant = Mu("m", Trans(Atom("al"), Trans(Sym(Atom("al")), Atom("al"))))
    assert oracle_equal(straight, redundant, _LAM_CTX)
    verdict = decide_rw_equal(straight, redundant, PAPER7, _LAM_CTX)
    assert isinstance(verdict, Equal)
    assert replay_derivation(verdict.witness, PAPER7, _LAM_CTX)


def test_nu_former_is_its_own_generator():
    assert not oracle_equal(Mu("m", Atom("al")), Nu(Atom("al"), "m"), _LAM_CTX)


def test_former_with_trivial_body_is_not_trivial():
    t = Mu("m", Refl(el("n")))
    assert word(t, _LAM_CTX).letters != ()


def _round_trips(t, ctx):
    """read_back(word(t)) has the word of t; returns the generator kinds seen."""
    w = word(t, ctx)
    back = read_back(w)
    assert word(back, ctx) == w, t
    return {(letter.gen[0], letter.orient) for letter in w.letters}


def test_former_words_read_back_to_the_same_word():
    al, be = Atom("al"), Atom("be")
    formers = [
        Xi("v", al),
        Mu("m", Trans(al, be)),
        Nu(Sym(al), "n"),
        Nu(Trans(al, Trans(be, Sym(be))), "k"),
        Mu("m", Xi("v", al)),
        Xi("w", Nu(al, "m")),
    ]
    kinds = set()
    for f in formers:
        for t in (f, Sym(f), Sym(Sym(f)), Trans(f, Sym(f)), Trans(Sym(f), f)):
            kinds |= _round_trips(t, _LAM_CTX)
    assert kinds == {(kind, orient) for kind in ("xi", "mu", "nu") for orient in (1, -1)}


def test_step_words_read_back_to_the_same_word(ctx_rs):
    """Level-2 terms: recorded steps, forward and reversed, are the letters."""
    kinds = set()
    for t in list(enumerate_terms(ctx_rs, 5))[::7]:
        d = canonical_derivation(t, PAPER7, ctx_rs)
        if d.steps:
            p = derivation_to_path(d)
            for u in (p, Sym(p), Trans(p, Sym(p)), Trans(Sym(p), Refl(Object(1, t)))):
                kinds |= _round_trips(u, ctx_rs)
    assert kinds == {("step", 1), ("step", -1)}


@pytest.mark.parametrize("gen", [("bogus", "r"), ("atom", 5), ("xi", "v"), ("nu", 1, Atom("r")), ("step",), (), "atom"])
def test_read_back_rejects_unreadable_keys(gen):
    base = Object(0, "a")
    with pytest.raises(PathRwError, match="^unreadable generator key: "):
        read_back(ReducedWord(base, (Letter(gen, 1, base, base),)))


# --- enumeration -------------------------------------------------------------


def test_enumerate_size_one(ctx_r):
    assert list(enumerate_terms(ctx_r, 1)) == [
        Atom("r"),
        Refl(el("a")),
        Refl(el("b")),
    ]


def test_enumerate_size_two_prefix(ctx_r):
    got = list(enumerate_terms(ctx_r, 2))
    assert got[:3] == [Atom("r"), Refl(el("a")), Refl(el("b"))]
    assert got[3:6] == [Sym(Atom("r")), Sym(Refl(el("a"))), Sym(Refl(el("b")))]
    assert Trans(Refl(el("a")), Atom("r")) not in got  # size 3


def test_enumerate_empty_for_size_zero(ctx_rs):
    assert list(enumerate_terms(ctx_rs, 0)) == []


def _count_by_recurrence(ctx: Context, max_size: int) -> int:
    """Independent size-partition counter over (size, source, target)."""
    pairs: dict[tuple, int] = {}
    for decl in ctx.atoms.values():
        key = (1, decl.source, decl.target)
        pairs[key] = pairs.get(key, 0) + 1
    for element in ctx.elements:
        key = (1, element, element)
        pairs[key] = pairs.get(key, 0) + 1
    elements = list(ctx.elements)
    for k in range(2, max_size + 1):
        for x in elements:
            for y in elements:
                total = pairs.get((k - 1, y, x), 0)  # Sym
                for i in range(1, k - 1):
                    for mid in elements:
                        total += pairs.get((i, x, mid), 0) * pairs.get((k - 1 - i, mid, y), 0)
                if total:
                    pairs[(k, x, y)] = pairs.get((k, x, y), 0) + total
    return sum(count for (k, _, _), count in pairs.items() if k <= max_size)


@pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5, 6, 7])
def test_enumerate_counts_match_recurrence(ctx_rs, max_size):
    enumerated = list(enumerate_terms(ctx_rs, max_size))
    assert len(enumerated) == _count_by_recurrence(ctx_rs, max_size)
    assert len(set(enumerated)) == len(enumerated)  # each term exactly once
    assert all(size(t) <= max_size for t in enumerated)


def test_enumerate_is_deterministic(ctx_rs):
    assert list(enumerate_terms(ctx_rs, 5)) == list(enumerate_terms(ctx_rs, 5))


def test_enumerate_sequence_is_pinned(ctx_rs):
    """The size-9 sequence, order included, as the term-keyed tables first gave it."""
    terms = list(enumerate_terms(ctx_rs, 9))
    assert len(terms) == 8869
    digest = hashlib.sha256("\n".join(format_term(t) for t in terms).encode()).hexdigest()
    assert digest == "96832c6cdee807f87dc68ac6f427ce415ed6c87696f8d22c9d17635df107614d"


# --- read-back and canonical forms -------------------------------------------


def test_read_back_is_extended_normal_form(ctx_rs):
    for t in enumerate_terms(ctx_rs, 8):
        nf = normalize(t, GROUPOID_COMPLETE, ctx_rs)[0]
        assert nf == read_back(word(t, ctx_rs))


@given(term_strategy(
    Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A"},
        {},
        {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A")},
    ),
    max_depth=8,
))
def test_read_back_matches_normal_form_random(t):
    ctx = Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A"},
        {},
        {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A")},
    )
    assert normalize(t, GROUPOID_COMPLETE, ctx)[0] == read_back(word(t, ctx))


# --- confluence experiments ---------------------------------------------------


def test_seven_rules_have_peaks(ctx_fan):
    peaks = check_confluence(PAPER7, ctx_fan, 7)
    assert peaks
    literal = Trans(Trans(Atom("r"), Sym(Atom("r"))), Atom("s"))
    match = [p for p in peaks if p.term == literal]
    assert match, "inverse-pair peak must be reported"
    nfs = {match[0].left_nf, match[0].right_nf}
    assert nfs == {Atom("s"), Trans(Atom("r"), Trans(Sym(Atom("r")), Atom("s")))}
    assert oracle_equal(match[0].left_nf, match[0].right_nf, ctx_fan)


def test_extended_rules_have_no_peaks(ctx_fan, ctx_rs):
    assert check_confluence(GROUPOID_COMPLETE, ctx_fan, 7) == []
    assert check_confluence(GROUPOID_COMPLETE, ctx_rs, 7) == []


def test_size_one_terms_have_no_peaks(ctx_rs):
    assert check_confluence(PAPER7, ctx_rs, 1) == []
    assert check_confluence(GROUPOID_COMPLETE, ctx_rs, 1) == []


def ref_check_confluence(rs, ctx, max_size):
    """Brute force: contract each redex of each term in place, normalize each contractum from scratch."""
    nf_cache = {}

    def nf(t):
        cached = nf_cache.get(t)
        if cached is None:
            cached = nf_cache[t] = contractions(t, rs, ctx)[0]
        return cached

    peaks = []
    for t in enumerate_terms(ctx, max_size):
        redexes = match_redexes(rs, t)
        if len(redexes) < 2:
            continue
        contracta = [(rule, pos, contract_once(t, rule, pos, rs, ctx)[0]) for rule, pos in redexes]
        for (r1, p1, c1), (r2, p2, c2) in itertools.combinations(contracta, 2):
            n1, n2 = nf(c1), nf(c2)
            if n1 != n2:
                peaks.append(Peak(t, r1, p1, n1, r2, p2, n2))
    return peaks


_TRIANGLE_ATOMS = {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A"), "u": AtomDecl("a", "c", "A")}
_TRIANGLE = Context(("A",), {"a": "A", "b": "A", "c": "A"}, {}, _TRIANGLE_ATOMS)
# The triangle next to lambda-valued elements joined by a tagged atom.
_TRIANGLE_LAM = Context(
    ("A", "F"),
    {"a": "A", "b": "A", "c": "A", "m": "F", "n": "F"},
    {"m": Abs("x", Var("x")), "n": Abs("y", Var("y"))},
    {**_TRIANGLE_ATOMS, "al": AtomDecl("m", "n", "F", "alpha")},
)


@pytest.mark.parametrize("rs", [PAPER7, GROUPOID_COMPLETE], ids=lambda rs: rs.name)
@pytest.mark.parametrize("ctx_name", ["ctx_rs", "ctx_fan", "triangle", "triangle_lam"])
def test_confluence_agrees_with_brute_force(request, ctx_name, rs):
    """Same peaks, in the same order, with equal fields, at every size up to 7."""
    ctx = {"triangle": _TRIANGLE, "triangle_lam": _TRIANGLE_LAM}.get(ctx_name) or request.getfixturevalue(ctx_name)
    for max_size in range(1, 8):
        assert check_confluence(rs, ctx, max_size) == ref_check_confluence(rs, ctx, max_size), max_size


def test_confluence_agrees_with_brute_force_at_size_nine(ctx_rs):
    peaks = check_confluence(PAPER7, ctx_rs, 9)
    assert len(peaks) == 119
    assert peaks == ref_check_confluence(PAPER7, ctx_rs, 9)


# --- extension rules are derivable -------------------------------------------


def _extension_instances(ctx):
    r, s, t = Atom("r"), Atom("s"), Atom("s")
    del t
    yield Sym(Trans(r, s)), Trans(Sym(s), Sym(r))  # st
    yield Trans(r, Trans(Sym(r), r)), r  # trc
    yield Trans(Sym(r), Trans(r, Sym(r))), Sym(r)  # tsrc


def test_extension_rules_have_seven_rule_witnesses(ctx_rs):
    for lhs, rhs in _extension_instances(ctx_rs):
        verdict = decide_rw_equal(lhs, rhs, PAPER7, ctx_rs)
        assert isinstance(verdict, Equal), (lhs, rhs)
        assert replay_derivation(verdict.witness, PAPER7, ctx_rs)
        assert all(
            step.rule in {"sr", "ss", "tr", "tsr", "tlr", "trr", "tt"}
            for step in verdict.witness.steps
        )


def test_extension_simulations_inside_bigger_terms(ctx_rs):
    chain = Trans(Atom("r"), Atom("s"))
    host = Trans(chain, Sym(chain))
    d = canonical_derivation(host, PAPER7, ctx_rs)
    assert any(step.position != () for step in d.steps)  # simulated off the root
    assert replay_derivation(d, PAPER7, ctx_rs)
    assert d.end == read_back(word(host, ctx_rs)) == Refl(el("a"))
