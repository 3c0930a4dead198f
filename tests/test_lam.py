"""Lambda core: substitution against a de Bruijn oracle, alpha-equivalence,
and the axiom-shape validation for tagged atoms."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from pathrw.errors import NotAnAxiomInstance
from pathrw.lam import Abs, App, Var, alpha_eq, free_vars, substitute, validate_axiom_atom
from pathrw.terms import AtomDecl, Context

from conftest import lambda_terms_up_to

NAMES = ("x", "y")


# --- independent de Bruijn oracle (locally nameless) -----------------------


def to_db(t, env=()):
    match t:
        case Var(name):
            for i, bound in enumerate(env):
                if bound == name:
                    return ("bvar", i)
            return ("fvar", name)
        case Abs(var, body):
            return ("abs", to_db(body, (var,) + env))
        case App(func, arg):
            return ("app", to_db(func, env), to_db(arg, env))
    raise TypeError


def db_subst_free(db, x, db_n):
    # Locally nameless: the replacement has no dangling bound indices,
    # so substitution under binders needs no shifting.
    match db:
        case ("fvar", name):
            return db_n if name == x else db
        case ("bvar", _):
            return db
        case ("abs", body):
            return ("abs", db_subst_free(body, x, db_n))
        case ("app", func, arg):
            return ("app", db_subst_free(func, x, db_n), db_subst_free(arg, x, db_n))
    raise TypeError


def lam_strategy(depth=4):
    return st.recursive(
        st.sampled_from([Var("x"), Var("y"), Var("z")]),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["x", "y", "z"]), children).map(lambda p: Abs(*p)),
            st.tuples(children, children).map(lambda p: App(*p)),
        ),
        max_leaves=depth * 2,
    )


# --- substitute -------------------------------------------------------------


def test_substitute_base_cases():
    assert substitute(Var("x"), "x", Var("a")) == Var("a")
    assert substitute(Var("z"), "x", Var("a")) == Var("z")


def test_substitute_avoids_capture_with_fresh_prime():
    out = substitute(Abs("y", Var("x")), "x", Var("y"))
    assert out == Abs("y'", Var("y"))
    out = substitute(Abs("y", App(Var("x"), Var("y'"))), "x", Var("y"))  # y' is taken too
    assert out == Abs("y''", App(Var("y"), Var("y'")))
    out = substitute(Abs("y", App(App(Var("x"), Var("y'")), Var("y''"))), "x", Var("y"))
    assert out == Abs("y'''", App(App(Var("y"), Var("y'")), Var("y''")))


def test_substitute_matches_de_bruijn_oracle_exhaustively():
    terms = lambda_terms_up_to(3, NAMES)
    for m, x, n in itertools.product(terms, NAMES, terms):
        got = to_db(substitute(m, x, n))
        expected = db_subst_free(to_db(m), x, to_db(n))
        assert got == expected, (m, x, n)


@given(lam_strategy(), st.sampled_from(["x", "y", "z"]), lam_strategy())
def test_substitute_matches_de_bruijn_oracle_random(m, x, n):
    assert to_db(substitute(m, x, n)) == db_subst_free(to_db(m), x, to_db(n))


# --- alpha_eq ----------------------------------------------------------------


def test_alpha_eq_examples():
    assert alpha_eq(Abs("x", Var("x")), Abs("y", Var("y")))
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(
        Abs("x", Abs("y", App(Var("x"), Var("y")))),
        Abs("a", Abs("b", App(Var("a"), Var("b")))),
    )


def test_alpha_eq_agrees_with_de_bruijn_on_all_pairs_depth3():
    terms = lambda_terms_up_to(3, NAMES)
    canon = [to_db(t) for t in terms]
    for (t1, c1), (t2, c2) in itertools.product(zip(terms, canon), repeat=2):
        assert alpha_eq(t1, t2) == (c1 == c2), (t1, t2)


def test_alpha_eq_is_equivalence_at_depth4():
    terms = lambda_terms_up_to(4, NAMES)
    # Reflexivity exhaustively; symmetry and transitivity via the class map:
    # alpha_eq agrees with de Bruijn canonicalization on every within-class
    # pair, and canonical-form equality is an equivalence by construction.
    classes: dict = {}
    for t in terms:
        assert alpha_eq(t, t)
        classes.setdefault(to_db(t), []).append(t)
    for members in classes.values():
        for t1, t2 in itertools.combinations(members, 2):
            assert alpha_eq(t1, t2) and alpha_eq(t2, t1)


@given(lam_strategy(), lam_strategy())
def test_alpha_eq_agrees_with_de_bruijn_random(m, n):
    assert alpha_eq(m, n) == (to_db(m) == to_db(n))


# --- axiom-shape validation -------------------------------------------------


def _ctx(lhs, rhs, tag):
    return (
        Context(
            ("F",),
            {"m": "F", "n": "F"},
            {"m": lhs, "n": rhs},
            {"t": AtomDecl("m", "n", "F", tag)},
        ),
        AtomDecl("m", "n", "F", tag),
    )


def test_beta_accepts_redex_and_contractum():
    ctx, atom = _ctx(App(Abs("x", Var("x")), Var("a")), Var("a"), "beta")
    assert validate_axiom_atom(atom, ctx)


def test_beta_rejects_wrong_contractum():
    ctx, atom = _ctx(App(Abs("x", Var("x")), Var("a")), Var("b"), "beta")
    with pytest.raises(NotAnAxiomInstance):
        validate_axiom_atom(atom, ctx)


def test_beta_rejects_non_redex():
    ctx, atom = _ctx(App(Var("f"), Var("a")), Var("a"), "beta")
    with pytest.raises(NotAnAxiomInstance):
        validate_axiom_atom(atom, ctx)


def test_eta_accepts_expansion():
    ctx, atom = _ctx(Abs("x", App(Var("m0"), Var("x"))), Var("m0"), "eta")
    assert validate_axiom_atom(atom, ctx)


def test_eta_rejects_bound_variable_free_in_function():
    ctx, atom = _ctx(Abs("x", App(Var("x"), Var("x"))), Var("x"), "eta")
    with pytest.raises(NotAnAxiomInstance):
        validate_axiom_atom(atom, ctx)


def test_alpha_tag_accepts_renaming():
    ctx, atom = _ctx(Abs("x", Var("x")), Abs("y", Var("y")), "alpha")
    assert validate_axiom_atom(atom, ctx)


def test_alpha_tag_rejects_distinct_terms():
    ctx, atom = _ctx(Var("x"), Var("y"), "alpha")
    with pytest.raises(NotAnAxiomInstance):
        validate_axiom_atom(atom, ctx)


def test_missing_lambda_definition_rejected():
    ctx = Context(("F",), {"m": "F", "n": "F"}, {}, {"t": AtomDecl("m", "n", "F", "beta")})
    with pytest.raises(NotAnAxiomInstance):
        validate_axiom_atom(ctx.atoms["t"], ctx)


def test_declared_atoms_skip_validation():
    ctx = Context(("F",), {"m": "F", "n": "F"}, {}, {"t": AtomDecl("m", "n", "F")})
    assert validate_axiom_atom(ctx.atoms["t"], ctx)


def test_beta_accepts_every_generated_redex():
    terms = lambda_terms_up_to(3, NAMES)
    for m, n in itertools.product(terms, repeat=2):
        lhs = App(Abs("x", m), n)
        rhs = substitute(m, "x", n)
        ctx, atom = _ctx(lhs, rhs, "beta")
        assert validate_axiom_atom(atom, ctx), (m, n)


def test_free_vars():
    assert free_vars(Abs("x", App(Var("x"), Var("y")))) == frozenset({"y"})
