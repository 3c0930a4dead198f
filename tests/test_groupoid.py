"""Weak groupoid laws: composition, single-step witnesses, the randomized
suite, and level uniformity up the tower."""

from __future__ import annotations

import random

import pytest

from pathrw.engine import derivation_to_path, normalize, replay_derivation
from pathrw.errors import EndpointMismatch, LevelMismatch
from pathrw.groupoid import (
    LAWS,
    check_assoc,
    check_inverses,
    check_units,
    compose,
    _random_path,
    _random_term_at_level,
    _wrap,
    _WRAP_RULES,
    run_laws,
)
from pathrw.rules import PAPER7
from pathrw.terms import Atom, Object, Refl, StepAtom, Sym, Trans, endpoints, level


def el(name):
    return Object(0, name)


def test_compose_is_sequential(ctx_rs):
    out = compose(Atom("r"), Atom("s"), ctx_rs)
    assert out == Trans(Atom("r"), Atom("s"))
    assert endpoints(out, ctx_rs) == (el("a"), el("c"))


def test_compose_with_identity_is_rw_equal_not_strict(ctx_r):
    out = compose(Refl(el("a")), Atom("r"), ctx_r)
    assert out == Trans(Refl(el("a")), Atom("r"))
    assert normalize(out, PAPER7, ctx_r)[0] == Atom("r")


def test_compose_rejects_mismatch(ctx_r):
    with pytest.raises(EndpointMismatch):
        compose(Atom("r"), Atom("r"), ctx_r)


def test_assoc_witness_is_single_tt(ctx_chain4):
    report = check_assoc(Atom("t0"), Atom("r0"), Atom("s0"), 1, ctx_chain4)
    assert report.verified
    assert [s.rule for s in report.witness.steps] == ["tt"]
    assert report.witness.start == Trans(Trans(Atom("t0"), Atom("r0")), Atom("s0"))
    assert report.witness.end == Trans(Atom("t0"), Trans(Atom("r0"), Atom("s0")))


def test_assoc_degenerate_triple_still_witnessed(ctx_r):
    rho = Refl(el("a"))
    report = check_assoc(rho, rho, rho, 1, ctx_r)
    assert report.verified
    assert len(report.witness.steps) >= 1  # never claims strict equality
    nf = normalize(report.witness.end, PAPER7, ctx_r)[0]
    assert nf == rho


def test_units_single_steps(ctx_r):
    left, right = check_units(Atom("r"), 1, ctx_r)
    assert left.law == "left-unit" and [s.rule for s in left.witness.steps] == ["tlr"]
    assert right.law == "right-unit" and [s.rule for s in right.witness.steps] == ["trr"]
    assert left.witness.end == Atom("r") == right.witness.end
    assert left.verified and right.verified


def test_inverses_single_steps(ctx_r):
    left, right = check_inverses(Atom("r"), 1, ctx_r)
    assert left.law == "left-inverse"
    assert left.witness.start == Trans(Atom("r"), Sym(Atom("r")))
    assert left.witness.end == Refl(el("a"))
    assert right.law == "right-inverse"
    assert right.witness.start == Trans(Sym(Atom("r")), Atom("r"))
    assert right.witness.end == Refl(el("b"))
    assert left.verified and right.verified


def test_inverses_of_trivial_path(ctx_r):
    rho = Refl(el("a"))
    left, right = check_inverses(rho, 1, ctx_r)
    assert left.verified and right.verified
    assert normalize(left.witness.start, PAPER7, ctx_r)[0] == rho


def test_level2_laws_use_level2_rules(ctx_r):
    _, d = normalize(Sym(Refl(el("a"))), PAPER7, ctx_r)
    theta = StepAtom(d.steps[0])
    left, right = check_units(theta, 2, ctx_r)
    assert [s.rule for s in left.witness.steps] == ["tlr2"]
    assert [s.rule for s in right.witness.steps] == ["trr2"]
    assert left.verified and right.verified
    inv_left, inv_right = check_inverses(theta, 2, ctx_r)
    assert [s.rule for s in inv_left.witness.steps] == ["tr2"]
    assert [s.rule for s in inv_right.witness.steps] == ["tsr2"]
    assert inv_left.verified and inv_right.verified


def test_law_checks_reject_wrong_level(ctx_r):
    with pytest.raises(LevelMismatch):
        check_units(Atom("r"), 2, ctx_r)


def test_run_laws_level1(ctx_rs):
    report = run_laws(ctx_rs, 1, 40, 42)
    assert len(report.reports) == 40 * 5
    assert not report.failures
    counts = report.counts()
    assert set(counts) == set(LAWS)
    assert all(passed == 40 and failed == 0 for passed, failed in counts.values())
    for r in report.reports:
        assert replay_derivation(r.witness, PAPER7, ctx_rs)


def test_run_laws_empty(ctx_rs):
    report = run_laws(ctx_rs, 1, 0, 1)
    assert report.reports == ()
    assert not report.failures


def test_run_laws_deterministic(ctx_rs):
    a = run_laws(ctx_rs, 2, 10, 9)
    b = run_laws(ctx_rs, 2, 10, 9)
    assert a == b


def test_run_laws_tower_levels(ctx_rs):
    for lv in (2, 3):
        report = run_laws(ctx_rs, lv, 25, 5)
        assert not report.failures
        for r in report.reports:
            assert r.level == lv
            assert all(step.level == lv for step in r.witness.steps)
            suffix = str(lv)
            assert all(step.rule.endswith(suffix) for step in r.witness.steps)


def test_lifted_objects_have_matching_endpoints(ctx_r):
    _, d = normalize(Trans(Refl(el("a")), Atom("r")), PAPER7, ctx_r)
    lifted = derivation_to_path(d)
    assert level(lifted) == 2
    src, tgt = endpoints(lifted, ctx_r)
    assert src == Object(1, d.start) and tgt == Object(1, d.end)


def ref_wrap(t, ctx, rng):
    """The redundancy wrapper as first written: it reads the endpoints on every layer."""
    rules = []
    for _ in range(rng.randint(0, 2)):
        src, tgt = endpoints(t, ctx)
        rule = rng.choice(_WRAP_RULES)
        if rule == "ss":
            t = Sym(Sym(t))
        elif rule == "tlr":
            t = Trans(Refl(src), t)
        else:
            t = Trans(t, Refl(tgt))
        rules.append(rule)
    return t, rules


def _outcome(wrap, t, ctx, rng):
    try:
        return wrap(t, ctx, rng)
    except EndpointMismatch as exc:
        return type(exc), str(exc)


def test_wrap_agrees_with_reference_draw_for_draw(ctx_rs):
    """Same terms, same rules, same RNG state after, over 3,000 seeds; an ill-formed term raises alike."""
    ill = Trans(Atom("r"), Atom("r"))
    kinds = set()
    for seed in range(3000):
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            t = _random_path(ctx_rs, rng, depth=rng.randint(0, 3))
        elif kind == 1:
            t = _random_term_at_level(ctx_rs, 2, rng)
        else:
            t = ill
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        got = _outcome(_wrap, t, ctx_rs, rng)
        assert got == _outcome(ref_wrap, t, ctx_rs, ref_rng), seed
        assert rng.getstate() == ref_rng.getstate(), seed
        kinds.add((kind, got[0] is EndpointMismatch, len(got[1]) if got[0] is not EndpointMismatch else None))
    assert {(2, True, None), (2, False, 0)} <= kinds  # ill-formed: raises with a layer, not without
    assert {(k, False, n) for k in (0, 1) for n in (0, 1, 2)} <= kinds
