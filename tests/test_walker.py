"""The incremental rewrite walker against a restart-from-root reference.

The reference finds each redex by scanning the whole term from the root
again, in strategy order, exactly as the normalizer did before it walked
the term once. Every recorded step must agree with it.
"""

from __future__ import annotations

import gc

import pytest

from pathrw.engine import FORWARD, _simulate_extension, canonical_derivation, normalize
from pathrw.oracle import enumerate_terms
from pathrw.rules import (
    GROUPOID_COMPLETE,
    PAPER7,
    build_template,
    instantiate_at_level,
    match_pattern,
)
from pathrw.terms import Atom, AtomDecl, Context, Object, Refl, Sym, Trans, level, path_children, replace_at

TRIANGLE = Context(
    ("A",),
    {"a": "A", "b": "A", "c": "A"},
    {},
    {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A"), "u": AtomDecl("a", "c", "A")},
)
TERMS = list(enumerate_terms(TRIANGLE, 8))
STRATEGIES = ("leftmost-innermost", "leftmost-outermost")


def reference_trace(t, rs, ctx, strategy, replay_rs):
    """(rule, position, direction, after) per step, rescanning from the root."""
    innermost = strategy == "leftmost-innermost"
    available = {schema.name for schema in replay_rs.schemas}

    def here(node):
        for schema in rs.schemas:
            binding = match_pattern(schema.lhs, node)
            if binding is not None:
                return schema, binding, ()
        return None

    def first(node):
        if not innermost and (found := here(node)):
            return found
        for i, child in enumerate(path_children(node)):
            if found := first(child):
                return found[0], found[1], (i,) + found[2]
        return here(node) if innermost else None

    trace, cur = [], t
    while found := first(cur):
        schema, binding, pos = found
        schema = instantiate_at_level(schema, level(t))
        after = replace_at(cur, pos, build_template(schema.rhs, binding, ctx))
        if schema.extension and schema.name not in available:
            simulated = _simulate_extension(cur, schema, pos, ctx)
            assert simulated[-1].after == after
            trace += [(s.rule, s.position, s.direction, s.after) for s in simulated]
        else:
            trace.append((schema.display_name, pos, FORWARD, after))
        cur = after
    return trace


def _trace(derivation):
    return [(s.rule, s.position, s.direction, s.after) for s in derivation.steps]


def test_sweep_size():
    assert len(TERMS) == 4946


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("rs", [PAPER7, GROUPOID_COMPLETE], ids=lambda rs: rs.name)
def test_normalize_matches_reference(rs, strategy):
    for t in TERMS:
        nf, d = normalize(t, rs, TRIANGLE, strategy)
        assert _trace(d) == reference_trace(t, rs, TRIANGLE, strategy, rs), t
        assert nf == d.end


@pytest.mark.parametrize("rs", [PAPER7, GROUPOID_COMPLETE], ids=lambda rs: rs.name)
def test_canonical_derivation_matches_reference(rs):
    for t in TERMS:
        d = canonical_derivation(t, rs, TRIANGLE)
        expected = reference_trace(t, GROUPOID_COMPLETE, TRIANGLE, "leftmost-innermost", rs)
        assert _trace(d) == expected, t


def _deep_term(n):
    """A term of depth about 5n from a to b, with a redex for every rule."""
    r, s, u = Atom("r"), Atom("s"), Atom("u")
    t = r
    for _ in range(n):
        t = Sym(Trans(Trans(Sym(t), u), Sym(Trans(r, s))))
        t = Trans(t, Trans(Sym(r), Trans(r, Refl(Object(0, "b")))))
    return t


def test_walk_leaves_no_reference_cycles():
    t = _deep_term(10)
    gc.collect()
    gc.disable()
    try:
        normalize(t, PAPER7, TRIANGLE, "leftmost-outermost")
        canonical_derivation(t, PAPER7, TRIANGLE)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_long_chain_normalizes_without_recursion(ctx_r, strategy):
    rho_b = Refl(Object(0, "b"))
    t = Atom("r")
    for _ in range(2000):
        t = Trans(t, rho_b)
    nf, d = normalize(t, PAPER7, ctx_r, strategy)
    assert nf == Atom("r")
    assert len(d.steps) == 2000
    assert {step.rule for step in d.steps} == {"trr"}
