"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every tolerance is exact (zero disagreements, zero failures); the printed
durations let the desk-scale budgets be checked by eye.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

import pytest

from pathrw import mu_measure
from pathrw.engine import (
    Derivation,
    Equal,
    concat_derivations,
    contract_once,
    decide_rw_equal,
    invert_derivation,
    normalize,
    replay_derivation,
)
from pathrw.errors import NotAnAxiomInstance
from pathrw.groupoid import run_laws
from pathrw.lam import Abs, App, Var, substitute, validate_axiom_atom
from pathrw.oracle import check_confluence, enumerate_terms, oracle_equal
from pathrw.rules import GROUPOID_COMPLETE, PAPER7, match_redexes
from pathrw.script import parse_path_expr, parse_script
from pathrw.serialize import derivation_to_doc, doc_from_json, doc_to_json, replay_document
from pathrw.terms import (
    Atom,
    AtomDecl,
    Context,
    Refl,
    Sym,
    Trans,
    format_term,
)

from conftest import CTX_RS, el

CTX_FAN = Context(
    ("A",),
    {"a": "A", "b": "A", "c": "A"},
    {},
    {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("a", "c", "A")},
)


def criterion(num: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
                raise
            print(f"\nACCEPTANCE {num} {name}: PASS ({time.perf_counter() - start:.2f}s)")

        return run

    return wrap


@criterion(1, "rule-table-fidelity")
def test_criterion_1_rule_table():
    ctx = Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A", "d": "A"},
        {},
        {
            "r": AtomDecl("a", "b", "A"),
            "t0": AtomDecl("a", "b", "A"),
            "r0": AtomDecl("b", "c", "A"),
            "s0": AtomDecl("c", "d", "A"),
        },
    )
    r = Atom("r")
    golden = [
        ("sr", Sym(Refl(el("a"))), Refl(el("a"))),
        ("ss", Sym(Sym(r)), r),
        ("tr", Trans(r, Sym(r)), Refl(el("a"))),
        ("tsr", Trans(Sym(r), r), Refl(el("b"))),
        ("trr", Trans(r, Refl(el("b"))), r),
        ("tlr", Trans(Refl(el("a")), r), r),
        (
            "tt",
            Trans(Trans(Atom("t0"), Atom("r0")), Atom("s0")),
            Trans(Atom("t0"), Trans(Atom("r0"), Atom("s0"))),
        ),
    ]
    assert len(golden) == 7
    for rule, lhs, rhs in golden:
        contractum, step = contract_once(lhs, rule, (), PAPER7, ctx)
        assert contractum == rhs, rule
        assert step.rule == rule and step.position == ()


@criterion(2, "termination-and-measure")
def test_criterion_2_termination():
    count = 0
    for t in enumerate_terms(CTX_RS, 12):
        _, d = normalize(t, PAPER7, CTX_RS)
        mu = mu_measure(t)
        for step in d.steps:
            mu_next = mu_measure(step.after)
            assert mu_next < mu, format_term(step.before)
            mu = mu_next
        count += 1
    assert 10**5 <= count <= 10**6, count


@criterion(3, "oracle-agreement-exhaustive")
def test_criterion_3_oracle_agreement():
    terms = list(enumerate_terms(CTX_RS, 6))
    disagreements = 0
    for s, t in itertools.product(terms, repeat=2):
        verdict = decide_rw_equal(s, t, PAPER7, CTX_RS)
        expected = oracle_equal(s, t, CTX_RS)
        if isinstance(verdict, Equal):
            if not expected:
                disagreements += 1
            assert replay_derivation(verdict.witness, PAPER7, CTX_RS), (s, t)
        elif expected:
            disagreements += 1
    assert disagreements == 0
    assert len(terms) ** 2 > 10**5


@criterion(4, "equivalence-relation-witnesses")
def test_criterion_4_equivalence_witnesses():
    rng = random.Random(2024)
    pool = list(enumerate_terms(CTX_RS, 7))
    for _ in range(1000):
        start = rng.choice(pool)
        steps = []
        cur = start
        for _ in range(rng.randint(0, 4)):
            redexes = match_redexes(PAPER7, cur)
            if not redexes:
                break
            rule, pos = rng.choice(redexes)
            cur, step = contract_once(cur, rule, pos, PAPER7, CTX_RS)
            steps.append(step)
        d = Derivation(start, tuple(steps), 1)
        inv = invert_derivation(d)
        assert replay_derivation(d, PAPER7, CTX_RS)
        assert replay_derivation(inv, PAPER7, CTX_RS)
        assert invert_derivation(inv).steps == d.steps
        assert replay_derivation(concat_derivations(d, inv), PAPER7, CTX_RS)


@criterion(5, "weak-groupoid-laws-level-1")
def test_criterion_5_laws_level_1():
    report = run_laws(CTX_RS, 1, 500, 42)
    assert len(report.reports) == 2500
    assert report.failures == ()
    assert all(r.verified for r in report.reports)
    composition_free = 0
    for r in report.reports:
        if r.law != "assoc":
            continue
        if all("tau(" not in format_term(term) for term in r.inputs):
            composition_free += 1
            assert len(r.witness.steps) == 1
            assert r.witness.steps[0].rule == "tt"
    assert composition_free > 0


@criterion(6, "tower-laws-levels-2-3")
def test_criterion_6_tower_laws():
    for lv, seed in ((2, 7), (3, 11)):
        report = run_laws(CTX_RS, lv, 100, seed)
        assert len(report.reports) == 500
        assert report.failures == ()
        suffix = str(lv)
        for r in report.reports:
            for step in r.witness.steps:
                assert step.level == lv
                assert step.rule.endswith(suffix)


@criterion(7, "confluence-peaks-and-extension")
def test_criterion_7_confluence():
    peaks = check_confluence(PAPER7, CTX_FAN, 7)
    assert len(peaks) >= 1
    literal = Trans(Trans(Atom("r"), Sym(Atom("r"))), Atom("s"))
    assert any(p.term == literal for p in peaks)
    # The mirror-image context types the symmetric peak instead.
    assert len(check_confluence(PAPER7, CTX_RS, 7)) >= 1
    assert check_confluence(GROUPOID_COMPLETE, CTX_FAN, 7) == []
    assert check_confluence(GROUPOID_COMPLETE, CTX_RS, 7) == []
    r, s = Atom("r"), Atom("s")
    extension_sides = [
        (Sym(Trans(r, s)), Trans(Sym(s), Sym(r))),
        (Trans(r, Trans(Sym(r), r)), r),
        (Trans(Sym(r), Trans(r, Sym(r))), Sym(r)),
    ]
    seven = {"sr", "ss", "tr", "tsr", "tlr", "trr", "tt"}
    for lhs, rhs in extension_sides:
        verdict = decide_rw_equal(lhs, rhs, PAPER7, CTX_RS)
        assert isinstance(verdict, Equal), format_term(lhs)
        assert replay_derivation(verdict.witness, PAPER7, CTX_RS)
        assert {step.rule for step in verdict.witness.steps} <= seven


@criterion(8, "lambda-axiom-validation")
def test_criterion_8_lambda_axioms():
    def ctx_for(lhs, rhs, tag):
        ctx = Context(
            ("F",),
            {"m": "F", "n": "F"},
            {"m": lhs, "n": rhs},
            {"t": AtomDecl("m", "n", "F", tag)},
        )
        return ctx, ctx.atoms["t"]

    identity = Abs("x", Var("x"))
    accepted = [
        (App(identity, Var("a")), Var("a"), "beta"),
        (App(Abs("x", App(Var("x"), Var("x"))), Var("w")), App(Var("w"), Var("w")), "beta"),
        (Abs("x", App(Var("m0"), Var("x"))), Var("m0"), "eta"),
        (identity, Abs("y", Var("y")), "alpha"),
        (App(Abs("y", Var("z")), Var("q")), Var("z"), "beta"),
        (Abs("v", App(App(Var("f"), Var("g")), Var("v"))), App(Var("f"), Var("g")), "eta"),
    ]
    for lhs, rhs, tag in accepted:
        ctx, atom = ctx_for(lhs, rhs, tag)
        assert validate_axiom_atom(atom, ctx), (lhs, tag)
    rejected = [
        (Abs("x", App(Var("x"), Var("x"))), Var("x"), "eta"),  # x free in the function
        (App(identity, Var("a")), Var("b"), "beta"),
        (Var("x"), Var("y"), "alpha"),
        (App(Var("f"), Var("a")), Var("a"), "beta"),
    ]
    for lhs, rhs, tag in rejected:
        ctx, atom = ctx_for(lhs, rhs, tag)
        with pytest.raises(NotAnAxiomInstance):
            validate_axiom_atom(atom, ctx)
    # The substitution law behind the beta shape, on generated bodies.
    for body in (Var("x"), Abs("y", Var("x")), App(Var("x"), Var("y"))):
        lhs = App(Abs("x", body), Var("k"))
        ctx, atom = ctx_for(lhs, substitute(body, "x", Var("k")), "beta")
        assert validate_axiom_atom(atom, ctx)


@criterion(9, "cli-round-trip-and-documents")
def test_criterion_9_cli_round_trip():
    for t in enumerate_terms(CTX_RS, 6):
        assert parse_path_expr(format_term(t), CTX_RS) == t
    script = parse_script(
        "type A\nelem a b c : A\nstep r : a = b\nstep s : a = c\n"
        "path p := tau(r, tau(sigma(r), s))\npath q := s\n"
    )
    verdict = decide_rw_equal(script.paths["p"], script.paths["q"], PAPER7, script.context)
    assert isinstance(verdict, Equal)
    doc = derivation_to_doc(verdict.witness, script.context, "paper7")
    wire = doc_to_json(doc)
    assert replay_document(doc_from_json(wire))
    _, d = normalize(script.paths["p"], GROUPOID_COMPLETE, script.context)
    doc2 = derivation_to_doc(d, script.context, "groupoid-complete")
    assert replay_document(doc_from_json(doc_to_json(doc2)))
