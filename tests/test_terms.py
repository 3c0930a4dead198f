"""Path terms: endpoints, well-formedness, size, positions."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given

from pathrw.engine import canonical_derivation, contract_once, decide_rw_equal, normalize
from pathrw.errors import (
    BadObject, BadStep, ContextError, EndpointMismatch, NoRedex, NotAnAxiomInstance, NotAnObject, PathRwError,
    PositionedError, UnknownAtom, UnknownElement, fmt_position,
)
from pathrw.lam import Abs, App, Var
from pathrw.oracle import enumerate_terms, word
from pathrw.rules import PAPER7, match_redexes
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
    Violation,
    Xi,
    endpoints,
    format_term,
    level,
    replace_at,
    size,
    subterm_at,
    validate,
)

from conftest import CTX_RS, TRIANGLE, el, raw_trees, term_strategy
from test_fold import ILL_FORMED_LEAVES
from test_kernel import ref_path_children


def test_endpoints_sym_swaps(ctx_r):
    assert endpoints(Sym(Atom("r")), ctx_r) == (el("b"), el("a"))


def test_endpoints_refl_duplicates(ctx_r):
    assert endpoints(Refl(el("a")), ctx_r) == (el("a"), el("a"))


def test_endpoints_trans_chains(ctx_rs):
    assert endpoints(Trans(Atom("r"), Atom("s")), ctx_rs) == (el("a"), el("c"))


def test_endpoints_unknown_atom(ctx_r):
    with pytest.raises(UnknownAtom) as exc:
        endpoints(Sym(Atom("zap")), ctx_r)
    assert exc.value.position == (0,)


def test_endpoints_mismatch_carries_position(ctx_r):
    with pytest.raises(EndpointMismatch) as exc:
        endpoints(Sym(Trans(Atom("r"), Atom("r"))), ctx_r)
    assert exc.value.position == (0,)


def test_validate_reports_mismatch_at_root(ctx_r):
    report = validate(Trans(Atom("r"), Atom("r")), ctx_r)
    assert not report.ok
    assert report.violations[0].kind == "endpoint-mismatch"
    assert report.violations[0].position == ()


def test_validate_accepts_double_sym(ctx_r):
    assert validate(Sym(Sym(Atom("r"))), ctx_r).ok


def test_validate_xi_endpoints(ctx_lam):
    term = Xi("z", Atom("al"))
    assert validate(term, ctx_lam).ok
    src, tgt = endpoints(term, ctx_lam)
    assert src == Object(0, Abs("z", Abs("x", Var("x"))))
    assert tgt == Object(0, Abs("z", Abs("y", Var("y"))))


def test_size_counts_nodes():
    r = Atom("r")
    assert size(r) == 1
    assert size(Trans(r, Sym(r))) == 4
    assert size(Refl(el("a"))) == 1


def test_levels(ctx_r):
    r = Atom("r")
    assert level(r) == 1
    assert level(Refl(el("a"))) == 1
    assert level(Refl(Object(1, r))) == 2
    assert level(Sym(Refl(Object(1, r)))) == 2


def test_positions_round_trip(ctx_rs):
    t = Trans(Sym(Atom("r")), Trans(Atom("r"), Atom("s")))
    assert subterm_at(t, (1, 0)) == Atom("r")
    swapped = replace_at(t, (1, 0), Sym(Sym(Atom("r"))))
    assert subterm_at(swapped, (1, 0)) == Sym(Sym(Atom("r")))
    assert subterm_at(swapped, (0,)) == Sym(Atom("r"))


def test_subterm_at_rejects_negative_indices():
    t = Trans(Atom("r"), Refl(el("b")))
    for pos in ((-1,), (0, -1), (1, -1), (2,)):
        with pytest.raises(PathRwError, match="no subterm at position"):
            subterm_at(t, pos)
        with pytest.raises(PathRwError, match="no subterm at position"):
            replace_at(t, pos, Atom("r"))


def test_positions_keep_one_contract(ctx_r):
    """What each position gives ``subterm_at``, ``replace_at`` and ``contract_once``.

    Lists work where a tuple is not required, ``contract_once`` takes tuples
    only, and every other bad position raises "no subterm at position …".
    """
    inner = Trans(Refl(el("a")), Atom("r"))
    t, x = Sym(Sym(inner)), Atom("x")
    found = [((), t, x), ((0,), Sym(inner), Sym(x)), ((0, 0), inner, Sym(Sym(x)))]
    for pos, sub, replaced in found + [(list(pos), sub, replaced) for pos, sub, replaced in found[1:]]:
        assert subterm_at(t, pos) == sub and replace_at(t, pos, x) == replaced
    assert contract_once(t, "ss", (), PAPER7, ctx_r)[0] == inner
    assert contract_once(t, "tlr", (0, 0), PAPER7, ctx_r)[0] == Sym(Sym(Atom("r")))
    with pytest.raises(NoRedex, match=re.escape("rule 'ss' does not match at position 0")):
        contract_once(t, "ss", (0,), PAPER7, ctx_r)
    with pytest.raises(NoRedex, match=re.escape("rule 'tlr' does not match at position root")):
        contract_once(t, "tlr", (), PAPER7, ctx_r)
    for pos in ([0], [0, 0], "0"):
        with pytest.raises(PathRwError, match=re.escape(f"position must be a tuple of child indices, not {pos!r}")):
            contract_once(t, "tlr", pos, PAPER7, ctx_r)
    missing = [((2,), "2"), ((-1,), "-1"), ((True,), "True"), ((0.0,), "0.0"), ((0, 0, 1, 0), "0.0.1.0"), ("0", "0")]
    for pos, shown in missing:  # (0, 0, 1, 0) is one level below the leaf r
        calls = [lambda: subterm_at(t, pos), lambda: replace_at(t, pos, x)]
        if type(pos) is tuple:
            calls.append(lambda: contract_once(t, "tlr", pos, PAPER7, ctx_r))
        for call in calls:
            with pytest.raises(PathRwError) as caught:
                call()
            assert type(caught.value) is PositionedError and str(caught.value) == f"no subterm at position {shown}"
            assert caught.value.position == pos


@given(term_strategy(CTX_RS))
def test_endpoints_sym_swaps_everywhere(t):
    src, tgt = endpoints(t, CTX_RS)
    assert endpoints(Sym(t), CTX_RS) == (tgt, src)


@given(term_strategy(CTX_RS))
def test_trans_endpoints_outer(t):
    src, tgt = endpoints(t, CTX_RS)
    chained = Trans(t, Refl(tgt))
    assert endpoints(chained, CTX_RS) == (src, tgt)


def test_validate_iff_endpoints_on_all_raw_trees(ctx_rs):
    leaves = [Atom("r"), Atom("s"), Refl(el("a")), Refl(el("b")), Refl(el("c"))]
    checked = 0
    for t in raw_trees(leaves, 8):
        ok = validate(t, ctx_rs).ok
        try:
            endpoints(t, ctx_rs)
            computed = True
        except (EndpointMismatch, UnknownAtom):
            computed = False
        assert ok == computed, format_term(t)
        checked += 1
    assert checked > 30000


def test_wellformedness_closed_under_subterms(ctx_rs):
    for t in enumerate_terms(ctx_rs, 7):
        for child in ref_path_children(t):
            assert validate(child, ctx_rs).ok


def test_objects_below_level_0_are_ill_formed(ctx_r, ctx_lam):
    """``endpoints`` names the object's position; ``validate`` reports it as a bad object or a level mismatch."""
    for obj, kind in ((Object(-1, "a"), "bad-object"), (Object(-3, Atom("r")), "level-mismatch")):
        for t, pos in ((Refl(obj), ()), (Sym(Refl(obj)), (0,)), (Trans(Atom("r"), Refl(obj)), (1,))):
            with pytest.raises(BadObject) as caught:
                endpoints(t, ctx_r)
            assert caught.value.position == pos
            assert str(caught.value) == f"object level {obj.level} is below 0 at position {fmt_position(pos)}"
            assert [(v.kind, v.position) for v in validate(t, ctx_r).violations] == [(kind, pos)]
    # A former's body is checked by a raising fold; the object is reported, not raised.
    report = validate(Mu("m", Trans(Atom("al"), Refl(Object(-1, "n")))), ctx_lam)
    assert report.violations == (Violation("endpoint-error", (0, 1), "object level -1 is below 0 at position 0.1"),)


def test_validate_reports_wrong_types_inside_a_former(ctx_lam):
    """``endpoints`` raises TypeError; ``validate`` folds the former's body and reports what is wrong there."""
    al = Atom("al")
    not_a_term = Violation("bad-term", (0,), "not a path term: 5")
    bad_object = Violation("bad-object", (0,), "object payload is not a path term")
    cases = [
        (Xi("v", 5), not_a_term),
        (Xi("v", Trans(al, 5)), Violation("bad-term", (0, 1), "not a path term: 5")),
        (Xi("v", Refl(Object("x", "a"))), bad_object),
        (Nu(5, "n"), not_a_term),
        (Sym(Mu("m", Sym(5))), Violation("bad-term", (0, 0, 0), "not a path term: 5")),
        (Mu(["m"], al), Violation("bad-term", (), f"not a path term: {Mu(['m'], al)!r}")),  # the former itself
    ]
    for t, violation in cases:
        with pytest.raises(TypeError):
            endpoints(t, ctx_lam)
        assert validate(t, ctx_lam).violations == (violation,), t
    assert validate(Refl(Object("x", "a")), ctx_lam).violations == (dataclasses.replace(bad_object, position=()),)
    assert validate(Trans(al, 5), ctx_lam).violations == (Violation("bad-term", (1,), "not a path term: 5"),)
    deep = 5
    for _ in range(1200):
        deep = Xi("v", deep)
    with pytest.raises(TypeError):
        endpoints(deep, ctx_lam)
    assert validate(deep, ctx_lam).violations == (Violation("bad-term", (0,) * 1200, "not a path term: 5"),)


def test_the_two_wrong_type_outcomes_are_declared(ctx_lam):
    """An object whose level is no integer, and a former over a non-term: ``endpoints`` raises ``TypeError``, ``validate`` reports one violation."""
    cases = [
        (Refl(Object("x", "a")), "'<' not supported between instances of 'str' and 'int'", ("bad-object", (), "object payload is not a path term")),
        (Xi("v", 5), "not a path term: 5", ("bad-term", (0,), "not a path term: 5")),
    ]
    for t, text, violation in cases:
        with pytest.raises(TypeError) as caught:
            endpoints(t, ctx_lam)
        assert type(caught.value) is TypeError and str(caught.value) == text
        assert [(v.kind, v.position, v.message) for v in validate(t, ctx_lam).violations] == [violation]


def test_an_atom_whose_name_cannot_be_hashed_is_a_declared_wrong_type(ctx_lam):
    """``Atom([])``: ``endpoints`` raises the lookup's ``TypeError``, ``validate`` reports one ``bad-term`` at the atom."""
    for t, position in ((Atom([]), ()), (Trans(Atom("al"), Sym(Atom([]))), (1, 0))):
        with pytest.raises(TypeError) as caught:
            endpoints(t, ctx_lam)
        assert type(caught.value) is TypeError and str(caught.value) == "unhashable type: 'list'"
        assert validate(t, ctx_lam).violations == (Violation("bad-term", position, "not a path term: Atom(name=[])"),)


def test_validate_reports_a_chain_break_at_an_end_it_cannot_format(ctx_r):
    """A level-0 payload that is no name or lambda term is shown by ``repr``; ``endpoints`` raises the same break."""
    r = Atom("r")
    for payload in (5, []):
        t = Trans(Refl(Object(0, payload)), r)
        with pytest.raises(EndpointMismatch) as caught:
            endpoints(t, ctx_r)
        assert caught.value.position == ()
        message = f"cannot chain: {payload!r} != a"
        assert validate(t, ctx_r).violations == (Violation("endpoint-mismatch", (), message),)
    inside = Xi("v", Trans(Refl(Object(1, StepAtom(5))), r))  # an end taken on trust inside a former, no step inside
    with pytest.raises(EndpointMismatch) as caught:
        endpoints(inside, ctx_r)
    assert [(v.kind, v.position, v.message) for v in validate(inside, ctx_r).violations] == [
        ("endpoint-error", (0,), str(caught.value))
    ]


def test_validate_flags_unknown_element(ctx_r):
    report = validate(Refl(el("zz")), ctx_r)
    assert not report.ok
    assert report.violations[0].kind == "unknown-element"


def test_validate_flags_corrupt_step_atom(ctx_r):
    from pathrw.engine import RewriteStep
    from pathrw.terms import StepAtom

    bogus = RewriteStep("sr", (), "forward", Atom("r"), Refl(el("a")), 1)
    report = validate(StepAtom(bogus), ctx_r)
    assert not report.ok
    assert report.violations[0].kind == "step-endpoints"


def test_validate_accepts_real_step_atom(ctx_r):
    from pathrw.engine import contract_once
    from pathrw.rules import PAPER7
    from pathrw.terms import StepAtom

    _, step = contract_once(Sym(Refl(el("a"))), "sr", (), PAPER7, ctx_r)
    assert validate(StepAtom(step), ctx_r).ok


def test_mu_nu_endpoints(ctx_lam):
    from pathrw.lam import App
    from pathrw.terms import Mu, Nu

    id_x = Abs("x", Var("x"))
    id_y = Abs("y", Var("y"))
    mu_src, mu_tgt = endpoints(Mu("m", Atom("al")), ctx_lam)
    assert mu_src == Object(0, App(id_x, id_x))
    assert mu_tgt == Object(0, App(id_x, id_y))
    nu_src, nu_tgt = endpoints(Nu(Atom("al"), "n"), ctx_lam)
    assert nu_src == Object(0, App(id_x, id_y))
    assert nu_tgt == Object(0, App(id_y, id_y))


def test_context_check_rejects_bad_atom():
    ctx = Context(("A",), {"a": "A"}, {}, {"r": AtomDecl("a", "zz", "A")})
    with pytest.raises(ContextError):
        ctx.check()


def test_context_check_rejects_name_collision():
    ctx = Context(("A",), {"A": "A"}, {}, {})
    with pytest.raises(ContextError):
        ctx.check()


def test_context_check_counts_type_names():
    with pytest.raises(ContextError, match="^type, element, and atom names must be pairwise distinct$"):
        Context(("A", "A")).check()


def test_context_check_rejects_a_tagged_atom_that_does_not_fit_its_tag():
    """The text a document's replay gave for this context before ``check`` judged tagged atoms."""
    lambdas = {"m": App(Abs("x", Var("x")), Var("y")), "n": Var("z")}
    ctx = Context(("F",), {"m": "F", "n": "F"}, lambdas, {"b": AtomDecl("m", "n", "F", "beta")})
    with pytest.raises(NotAnAxiomInstance, match="^beta: right endpoint is not the substitution instance of the left$"):
        ctx.check()
    Context(ctx.base_types, ctx.elements, {**lambdas, "n": Var("y")}, ctx.atoms).check()
    with pytest.raises(ContextError):  # the name and type rules are judged first
        Context(("F", "F"), ctx.elements, lambdas, ctx.atoms).check()


def test_format_term_examples(ctx_rs):
    t = Trans(Refl(el("a")), Sym(Atom("r")))
    assert format_term(t) == "tau(rho(a), sigma(r))"


def test_format_term_locates_a_step_atom_around_no_step(ctx_rs):
    """Not AttributeError: the ``BadStep`` that ``endpoints`` raises, at ``validate``'s position inside a Refl's object."""
    r, bad = Atom("r"), StepAtom(5)
    for t, pos in ((bad, ()), (Trans(r, bad), (1,))):
        with pytest.raises(BadStep) as got:
            format_term(t)
        with pytest.raises(BadStep) as expected:
            endpoints(t, ctx_rs)
        assert (str(got.value), got.value.position) == (str(expected.value), expected.value.position)
        assert (str(got.value), got.value.position) == (f"not a rewrite step: 5 at position {fmt_position(pos)}", pos)
    inner = Sym(Trans(r, bad))
    for t, pos in ((Trans(r, Refl(Object(1, inner))), (1, 0, 1)), (Trans(Trans(bad, bad), inner), (0, 0))):
        with pytest.raises(BadStep, match=re.escape(f"at position {fmt_position(pos)}")) as got:
            format_term(t)
        assert got.value.position == pos == validate(t, ctx_rs).violations[0].position


def test_every_error_of_a_whole_term_walk_names_a_subterm():
    """Each walk returns, raises ``TypeError``, or raises a ``PositionedError`` at a subterm it names in its text.

    ``contract_once`` is left out: over an ill-formed bound subterm a ``tr`` or
    ``tsr`` contraction raises that subterm's error at its own positions.
    """
    walks = [
        lambda t: endpoints(t, TRIANGLE),
        lambda t: word(t, TRIANGLE),
        level,
        format_term,
        lambda t: normalize(t, PAPER7, TRIANGLE),
        lambda t: canonical_derivation(t, PAPER7, TRIANGLE),
        lambda t: decide_rw_equal(t, t, PAPER7, TRIANGLE),
        lambda t: match_redexes(PAPER7, t),
    ]
    trees = list(raw_trees(ILL_FORMED_LEAVES, 5))
    kinds = set()
    for t in trees:
        for walk in walks:
            try:
                walk(t)
            except TypeError:
                pass
            except PositionedError as exc:
                kinds.add(type(exc))
                assert f"at position {fmt_position(exc.position)}" in str(exc), (t, exc)
                subterm_at(t, exc.position)
    assert len(trees) == 3927
    assert kinds == {UnknownAtom, UnknownElement, BadObject, NotAnObject, BadStep, EndpointMismatch}


def test_atom_decl_holds_its_ends_outside_its_fields():
    """``ends`` is no argument and takes no part in ``==``, ``hash`` or ``repr``; copies and replacements rebuild it."""
    decl = AtomDecl("a", "b", "A")
    assert decl.ends == (Object(0, "a"), Object(0, "b"))
    assert repr(decl) == "AtomDecl(source='a', target='b', type_name='A', tag='declared')"
    assert decl == AtomDecl("a", "b", "A", "declared") and hash(decl) == hash(AtomDecl("a", "b", "A"))
    with pytest.raises(TypeError):
        AtomDecl("a", "b", "A", "declared", (Object(0, "x"), Object(0, "y")))
    with pytest.raises(dataclasses.FrozenInstanceError):
        decl.ends = ()
    for same in (copy.copy(decl), copy.deepcopy(decl), pickle.loads(pickle.dumps(decl))):
        assert same == decl and same.ends == decl.ends
    flipped = dataclasses.replace(decl, source="b", target="a")
    assert flipped.ends == (Object(0, "b"), Object(0, "a"))
    assert [f.name for f in dataclasses.fields(decl) if f.init] == ["source", "target", "type_name", "tag"]
