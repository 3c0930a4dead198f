"""Path terms: endpoints, well-formedness, size, positions."""

from __future__ import annotations

import re

import pytest
from hypothesis import given

from pathrw.engine import contract_once
from pathrw.errors import ContextError, EndpointMismatch, NoRedex, PathRwError, UnknownAtom
from pathrw.lam import Abs, Var
from pathrw.oracle import enumerate_terms
from pathrw.rules import PAPER7
from pathrw.terms import (
    Atom,
    AtomDecl,
    Context,
    Object,
    Refl,
    Sym,
    Trans,
    Xi,
    endpoints,
    format_term,
    level,
    path_children,
    replace_at,
    size,
    subterm_at,
    validate,
)

from conftest import raw_trees, term_strategy


def el(name: str) -> Object:
    return Object(0, name)


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
            assert type(caught.value) is PathRwError and str(caught.value) == f"no subterm at position {shown}"


def test_path_children_leaves():
    assert path_children(Atom("r")) == ()
    assert path_children(Refl(el("a"))) == ()


_CTX_RS = Context(
    ("A",),
    {"a": "A", "b": "A", "c": "A"},
    {},
    {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A")},
)


@given(term_strategy(_CTX_RS))
def test_endpoints_sym_swaps_everywhere(t):
    src, tgt = endpoints(t, _CTX_RS)
    assert endpoints(Sym(t), _CTX_RS) == (tgt, src)


@given(term_strategy(_CTX_RS))
def test_trans_endpoints_outer(t):
    src, tgt = endpoints(t, _CTX_RS)
    chained = Trans(t, Refl(tgt))
    assert endpoints(chained, _CTX_RS) == (src, tgt)


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
        for child in path_children(t):
            assert validate(child, ctx_rs).ok


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


def test_format_term_examples(ctx_rs):
    t = Trans(Refl(el("a")), Sym(Atom("r")))
    assert format_term(t) == "tau(rho(a), sigma(r))"
