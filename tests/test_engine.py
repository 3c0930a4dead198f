"""Engine: contraction, normalization, the equality decision and its
witnesses, derivation algebra, lifting, and replay."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from pathrw import engine, mu_measure
from pathrw.engine import (
    Derivation,
    Equal,
    NotEqual,
    RewriteStep,
    canonical_derivation,
    concat_derivations,
    contract_once,
    decide_rw_equal,
    derivation_to_path,
    invert_derivation,
    normalize,
    replay_derivation,
)
from pathrw.errors import (
    BadObject, BadStep, ChainMismatch, EndpointMismatch, LevelMismatch, NoRedex, NotAnObject, PathRwError,
    UnknownRule,
)
from pathrw.oracle import enumerate_terms, oracle_equal, read_back, word
from pathrw.rules import GROUPOID_COMPLETE, PAPER7, match_redexes
from pathrw.script import parse_script
from pathrw.serialize import derivation_to_doc, replay_document
from pathrw.terms import (
    Atom,
    AtomDecl,
    Context,
    Object,
    Refl,
    StepAtom,
    Sym,
    Trans,
    Xi,
    endpoints,
    format_term,
    level,
    replace_at,
    subterm_at,
    validate,
)

from conftest import CTX_RS, el, term_strategy


# --- contract_once ----------------------------------------------------------


def test_contract_at_root(ctx_r):
    out, step = contract_once(Sym(Refl(el("a"))), "sr", (), PAPER7, ctx_r)
    assert out == Refl(el("a"))
    assert step.before == Sym(Refl(el("a"))) and step.after == out


def test_contract_at_subterm(ctx_rs):
    t = Trans(Sym(Sym(Atom("r"))), Atom("s"))
    out, step = contract_once(t, "ss", (0,), PAPER7, ctx_rs)
    assert out == Trans(Atom("r"), Atom("s"))
    assert step.position == (0,)


def test_contract_no_redex(ctx_r):
    with pytest.raises(NoRedex):
        contract_once(Atom("r"), "tr", (), PAPER7, ctx_r)


@pytest.mark.parametrize("pos", [None, 5, [0]], ids=repr)
def test_contract_rejects_a_position_that_is_not_a_tuple(ctx_r, pos):
    """None and 5 used to raise TypeError; [0] returned a step whose position was a list."""
    t = Sym(Trans(Refl(el("a")), Atom("r")))
    with pytest.raises(PathRwError, match="position must be a tuple of child indices"):
        contract_once(t, "tlr", pos, PAPER7, ctx_r)


# --- normalize ---------------------------------------------------------------


def test_normalize_cancellation_chain(ctx_r):
    t = Trans(Refl(el("a")), Trans(Atom("r"), Sym(Atom("r"))))
    nf, d = normalize(t, PAPER7, ctx_r)
    assert nf == Refl(el("a"))
    assert [(s.rule, s.position) for s in d.steps] == [("tr", (1,)), ("tlr", ())]


def test_normalize_triple_sym(ctx_r):
    nf, d = normalize(Sym(Sym(Sym(Atom("r")))), PAPER7, ctx_r)
    assert nf == Sym(Atom("r"))
    assert len(d.steps) == 1 and d.steps[0].rule == "ss"


def test_normalize_already_normal(ctx_r):
    nf, d = normalize(Refl(el("a")), PAPER7, ctx_r)
    assert nf == Refl(el("a"))
    assert d.steps == ()


def test_normalize_strategies_agree_on_normal_form(ctx_rs):
    for t in enumerate_terms(ctx_rs, 6):
        inner = normalize(t, GROUPOID_COMPLETE, ctx_rs)[0]
        outer = normalize(t, GROUPOID_COMPLETE, ctx_rs, "leftmost-outermost")[0]
        assert inner == outer


def test_normalize_outermost_picks_root_first(ctx_fan):
    t = Trans(Trans(Atom("r"), Sym(Atom("r"))), Sym(Sym(Atom("s"))))
    _, d = normalize(t, PAPER7, ctx_fan, "leftmost-outermost")
    assert d.steps[0].rule == "tt" and d.steps[0].position == ()


@pytest.mark.parametrize("rs", [PAPER7, GROUPOID_COMPLETE], ids=lambda rs: rs.name)
def test_normalize_rejects_ill_formed_input_where_it_breaks(ctx_r, rs):
    """tau(tau(r, r), ...) does not chain at position 0; it used to normalize to tau(r, r)."""
    t = Trans(Trans(Atom("r"), Atom("r")), Sym(Refl(el("a"))))
    for strategy in ("leftmost-innermost", "leftmost-outermost"):
        with pytest.raises(EndpointMismatch) as exc:
            normalize(t, rs, ctx_r, strategy)
        assert exc.value.position == (0,)


def test_an_unknown_strategy_is_an_input_error(ctx_r):
    with pytest.raises(PathRwError) as caught:
        normalize(Trans(Atom("r"), Refl(el("b"))), PAPER7, ctx_r, "bogus")
    assert type(caught.value) is PathRwError and str(caught.value) == "unknown strategy 'bogus'"


def test_objects_below_level_0_are_input_errors(ctx_r):
    """sigma(rho) over a level -1 object used to normalize, by a step named sr0 whose replay raised ValueError.

    ``contract_once`` raised that ValueError too, and ``match_redexes`` named the step sr0.
    """
    start = Sym(Refl(Object(-1, "a")))
    for call in (
        word,
        lambda t, ctx: normalize(t, PAPER7, ctx),
        lambda t, ctx: canonical_derivation(t, PAPER7, ctx),
        lambda t, ctx: contract_once(t, "sr", (), PAPER7, ctx),
        lambda t, ctx: match_redexes(PAPER7, t),
    ):
        with pytest.raises(BadObject, match=r"^object level -1 is below 0 at position 0$"):
            call(start, ctx_r)
    step = RewriteStep("sr0", (), "forward", start, Refl(Object(-1, "a")), 0)
    assert not replay_derivation(Derivation(start, (step,), 0), PAPER7, ctx_r)
    deep = Refl(Object(-3, Atom("r")))  # it used to be Equal to itself, by a level -2 witness
    for rs in (PAPER7, GROUPOID_COMPLETE):
        with pytest.raises(BadObject, match=r"^object level -3 is below 0 at position root$"):
            decide_rw_equal(deep, deep, rs, ctx_r)
        with pytest.raises(BadObject, match=r"^object level -3 is below 0 at position root$"):
            match_redexes(rs, deep)


def test_canonical_derivation_rejects_ill_formed_level_2_input(ctx_r):
    """sigma(tau(p, p)) breaks at position 0; the error used to come from a template, at the root."""
    _, step = contract_once(Trans(Atom("r"), Refl(el("b"))), "trr", (), PAPER7, ctx_r)
    p = StepAtom(step)
    for rs in (PAPER7, GROUPOID_COMPLETE):
        with pytest.raises(EndpointMismatch) as exc:
            canonical_derivation(Sym(Trans(p, p)), rs, ctx_r)
        assert exc.value.position == (0,)


def test_input_is_checked_once_per_call_not_per_step(ctx_r, monkeypatch):
    t = Atom("r")
    for _ in range(30):
        t = Trans(Sym(Sym(t)), Refl(el("b")))
    checked = []
    monkeypatch.setattr(engine, "endpoints", lambda u, ctx: checked.append(u) or (el("a"), el("b")))
    assert len(normalize(t, PAPER7, ctx_r)[1].steps) == 60
    assert len(canonical_derivation(t, PAPER7, ctx_r).steps) == 60
    assert checked == [t, t]
    checked.clear()
    u = Atom("r")
    worded = []
    monkeypatch.setattr(engine, "word", lambda v, ctx: worded.append(v) or word(v, ctx))
    assert isinstance(decide_rw_equal(t, u, PAPER7, ctx_r), Equal)
    assert checked == [] and worded == [t, u]


# --- non-confluence of the seven rules (witnessed) ---------------------------


def test_seven_rules_not_confluent_but_rw_equal(ctx_fan):
    r, s = Atom("r"), Atom("s")
    peak = Trans(Trans(r, Sym(r)), s)
    nf_inner, d = normalize(peak, PAPER7, ctx_fan)
    assert nf_inner == s
    assert [(st_.rule, st_.position) for st_ in d.steps] == [("tr", (0,)), ("tlr", ())]
    tt_first, _ = contract_once(peak, "tt", (), PAPER7, ctx_fan)
    assert tt_first == Trans(r, Trans(Sym(r), s))
    assert match_redexes(PAPER7, tt_first) == []  # a distinct normal form
    assert nf_inner != tt_first
    verdict = decide_rw_equal(nf_inner, tt_first, PAPER7, ctx_fan)
    assert isinstance(verdict, Equal)
    assert replay_derivation(verdict.witness, PAPER7, ctx_fan)


# --- decide_rw_equal ---------------------------------------------------------


def test_decide_needs_reverse_steps(ctx_fan):
    lhs = Trans(Atom("r"), Trans(Sym(Atom("r")), Atom("s")))
    assert match_redexes(PAPER7, lhs) == []  # normal form for the seven rules
    verdict = decide_rw_equal(lhs, Atom("s"), PAPER7, ctx_fan)
    assert isinstance(verdict, Equal)
    assert any(step.direction == "reverse" for step in verdict.witness.steps)
    assert replay_derivation(verdict.witness, PAPER7, ctx_fan)


def test_decide_not_equal_on_endpoint_mismatch(ctx_fan):
    r, s = Atom("r"), Atom("s")
    for lhs, rhs in ((r, Sym(r)), (r, s), (Sym(r), Sym(s))):  # both ends differ; only the target; only the source
        verdict = decide_rw_equal(lhs, rhs, PAPER7, ctx_fan)
        assert isinstance(verdict, NotEqual)
        assert verdict.reason == "endpoint mismatch"


def test_decide_reflexive_is_empty_witness(ctx_rs):
    t = Trans(Atom("r"), Atom("s"))
    verdict = decide_rw_equal(t, t, PAPER7, ctx_rs)
    assert isinstance(verdict, Equal)
    assert verdict.witness.steps == ()
    assert replay_derivation(verdict.witness, PAPER7, ctx_rs)


def test_decide_distinguishes_parallel_atoms():
    ctx = Context(
        ("A",),
        {"a": "A", "b": "A"},
        {},
        {"r": AtomDecl("a", "b", "A"), "r2": AtomDecl("a", "b", "A")},
    )
    verdict = decide_rw_equal(Atom("r"), Atom("r2"), PAPER7, ctx)
    assert isinstance(verdict, NotEqual)
    assert "word" in verdict.reason


def test_decide_level_mismatch(ctx_r):
    lifted = Refl(Object(1, Atom("r")))
    with pytest.raises(LevelMismatch):
        decide_rw_equal(Atom("r"), lifted, PAPER7, ctx_r)


def test_decide_raises_an_internal_error_when_canonical_forms_differ(ctx_fan, monkeypatch):
    """Equal words but different canonical forms is a fault in the rules, not in the input."""
    lhs = Trans(Atom("r"), Trans(Sym(Atom("r")), Atom("s")))
    monkeypatch.setattr(engine, "_record", lambda t, walk_rs, ctx, strategy, rs: Derivation(t, (), level(t)))
    with pytest.raises(RuntimeError, match="^internal error: equal reduced words") as exc:
        decide_rw_equal(lhs, Atom("s"), PAPER7, ctx_fan)
    # cli.main reports OSError and PathRwError as input errors; this must escape it.
    assert not isinstance(exc.value, (OSError, PathRwError))


def test_decide_handles_endo_and_parallel_atoms():
    ctx = Context(
        ("A",),
        {"a": "A", "b": "A"},
        {},
        {
            "e": AtomDecl("a", "a", "A"),
            "r": AtomDecl("a", "b", "A"),
            "r2": AtomDecl("a", "b", "A"),
        },
    )
    e, rho_a = Atom("e"), Refl(el("a"))
    assert isinstance(decide_rw_equal(e, rho_a, PAPER7, ctx), NotEqual)
    assert isinstance(decide_rw_equal(e, Sym(e), PAPER7, ctx), NotEqual)
    cancelled = decide_rw_equal(Trans(e, Sym(e)), rho_a, PAPER7, ctx)
    assert isinstance(cancelled, Equal)
    assert isinstance(decide_rw_equal(Atom("r"), Atom("r2"), PAPER7, ctx), NotEqual)


def test_decide_agrees_with_oracle_small(ctx_rs):
    terms = list(enumerate_terms(ctx_rs, 4))
    for s, t in itertools.product(terms, repeat=2):
        verdict = decide_rw_equal(s, t, PAPER7, ctx_rs)
        expected = oracle_equal(s, t, ctx_rs)
        assert isinstance(verdict, Equal) == expected
        if isinstance(verdict, Equal):
            assert replay_derivation(verdict.witness, PAPER7, ctx_rs)


def test_canonical_derivation_replays_under_both_sets(ctx_rs):
    for t in enumerate_terms(ctx_rs, 6):
        d7 = canonical_derivation(t, PAPER7, ctx_rs)
        assert replay_derivation(d7, PAPER7, ctx_rs)
        dgc = canonical_derivation(t, GROUPOID_COMPLETE, ctx_rs)
        assert replay_derivation(dgc, GROUPOID_COMPLETE, ctx_rs)
        assert d7.end == dgc.end


# --- derivation algebra ------------------------------------------------------


def _random_derivation(t, rng: random.Random) -> Derivation:
    steps = []
    cur = t
    for _ in range(rng.randint(0, 5)):
        redexes = match_redexes(PAPER7, cur)
        if not redexes:
            break
        rule, pos = rng.choice(redexes)
        cur, step = contract_once(cur, rule, pos, PAPER7, CTX_RS)
        steps.append(step)
    return Derivation(t, tuple(steps), level(t))


def test_concat_examples(ctx_r):
    empty = Derivation(Atom("r"), (), 1)
    assert concat_derivations(empty, empty) == empty
    _, d = normalize(Sym(Sym(Atom("r"))), PAPER7, ctx_r)
    combined = concat_derivations(d, Derivation(Atom("r"), (), 1))
    assert combined.steps == d.steps


def test_concat_chain_mismatch(ctx_r):
    d1 = Derivation(Atom("r"), (), 1)
    d2 = Derivation(Sym(Atom("r")), (), 1)
    with pytest.raises(ChainMismatch):
        concat_derivations(d1, d2)
    one_up = Derivation(Refl(Object(1, Atom("r"))), (), 2)
    with pytest.raises(ChainMismatch, match="^levels differ: 1 != 2$"):
        concat_derivations(d1, one_up)


def test_invert_empty_and_single(ctx_r):
    empty = Derivation(Refl(el("a")), (), 1)
    assert invert_derivation(empty) == empty
    _, d = normalize(Sym(Refl(el("a"))), PAPER7, ctx_r)
    inv = invert_derivation(d)
    assert inv.start == Refl(el("a"))
    assert inv.steps[0].direction == "reverse"
    assert inv.end == Sym(Refl(el("a")))
    assert replay_derivation(inv, PAPER7, ctx_r)


@given(term_strategy(CTX_RS), st.integers(0, 2**32 - 1))
def test_derivation_equivalence_witnesses(t, seed):
    rng = random.Random(seed)
    d = _random_derivation(t, rng)
    assert replay_derivation(d, PAPER7, CTX_RS)
    inv = invert_derivation(d)
    assert replay_derivation(inv, PAPER7, CTX_RS)
    assert invert_derivation(inv) == d
    round_trip = concat_derivations(d, inv)
    assert replay_derivation(round_trip, PAPER7, CTX_RS)
    d2 = _random_derivation(d.end, rng)
    chained = concat_derivations(d, d2)
    assert replay_derivation(chained, PAPER7, CTX_RS)


def test_replay_rejects_corrupted_position(ctx_r):
    _, d = normalize(Trans(Refl(el("a")), Atom("r")), PAPER7, ctx_r)
    assert replay_derivation(d, PAPER7, ctx_r)
    step = d.steps[0]
    bad = Derivation(d.start, (RewriteStep(step.rule, (0,), step.direction, step.before, step.after, step.level),), 1)
    assert not replay_derivation(bad, PAPER7, ctx_r)


def test_negative_positions_are_rejected_not_indexed(ctx_r):
    t = Trans(Atom("r"), Refl(el("b")))
    with pytest.raises(PathRwError, match=r"no subterm at position"):
        contract_once(t, "trr", (-1,), PAPER7, ctx_r)
    _, d = normalize(Trans(Trans(Atom("r"), Refl(el("b"))), Refl(el("b"))), PAPER7, ctx_r)
    assert [(step.rule, step.position) for step in d.steps] == [("trr", (0,)), ("trr", ())]
    assert replay_derivation(d, PAPER7, ctx_r)
    for pos in ((-1,), (0, -1), (-1, 0)):
        step = dataclasses.replace(d.steps[0], position=pos)
        assert not replay_derivation(Derivation(d.start, (step,), 1), PAPER7, ctx_r)


def test_replay_rejects_an_ill_formed_start(ctx_r):
    """tau(rho(c), r) with r : a = b has no endpoints, though tlr matches it and gives r."""
    ctx = Context(ctx_r.base_types, {**ctx_r.elements, "c": "A"}, {}, ctx_r.atoms)
    start = Trans(Refl(el("c")), Atom("r"))
    for check in (endpoints, lambda t, ctx: normalize(t, PAPER7, ctx)):
        with pytest.raises(EndpointMismatch):
            check(start, ctx)
    step = RewriteStep("tlr", (), "forward", start, Atom("r"), 1)
    assert not replay_derivation(Derivation(start, (step,), 1), PAPER7, ctx)
    assert not replay_derivation(Derivation(start, (), 1), PAPER7, ctx)
    good = Trans(Refl(el("a")), Atom("r"))
    step = RewriteStep("tlr", (), "forward", good, Atom("r"), 1)
    assert replay_derivation(Derivation(good, (step,), 1), PAPER7, ctx)


@pytest.mark.parametrize(
    "field, value",
    [("rule", None), ("rule", 5), ("rule", ["tlr"]), ("position", None), ("position", ("x",)), ("position", (0.0,))],
    ids=repr,
)
def test_bad_hand_built_step_fields_fail_cleanly(ctx_r, field, value):
    """A step field of the wrong type makes replay False and the entry points raise a PathRwError."""
    t = Sym(Trans(Refl(el("a")), Atom("r")))
    _, step = contract_once(t, "tlr", (0,), PAPER7, ctx_r)
    bad = dataclasses.replace(step, **{field: value})
    assert replay_derivation(Derivation(t, (bad,), 1), PAPER7, ctx_r) is False
    assert replay_derivation(Derivation(bad.after, (bad.flipped(),), 1), PAPER7, ctx_r) is False
    if field == "rule":
        with pytest.raises(UnknownRule, match="malformed rule name"):
            PAPER7.find(value, 1)
        with pytest.raises(UnknownRule, match="malformed rule name"):
            contract_once(t, value, (0,), PAPER7, ctx_r)
    elif value is not None:
        for call in (
            lambda: contract_once(t, "tlr", value, PAPER7, ctx_r),
            lambda: subterm_at(t, value),
            lambda: replace_at(t, value, Atom("r")),
        ):
            with pytest.raises(PathRwError, match="no subterm at position"):
                call()


def test_replay_rejects_a_malformed_hand_built_derivation(ctx_r):
    """A step that is not a RewriteStep, and a start that is not a path term, used to raise."""
    t = Trans(Refl(el("a")), Atom("r"))
    _, step = contract_once(t, "tlr", (), PAPER7, ctx_r)
    assert replay_derivation(Derivation(t, (step,), 1), PAPER7, ctx_r)
    for steps in ((None,), (step, None), ((step.rule, step.position, step.direction, t, step.after, 1),)):
        assert replay_derivation(Derivation(t, steps, 1), PAPER7, ctx_r) is False
    for start in ("x", None, Trans(Atom("r"), 42)):
        assert replay_derivation(Derivation(start, (), 1), PAPER7, ctx_r) is False
        assert replay_derivation(Derivation(start, (step,), 1), PAPER7, ctx_r) is False


def test_replay_rejects_steps_that_are_no_tuple_and_a_start_at_another_level(ctx_r):
    """``Derivation(r, None, 1)`` raised TypeError; ``Derivation(r, (), 2)`` replayed True, though its document does not."""
    r = Atom("r")
    _, step = contract_once(Trans(r, Refl(el("b"))), "trr", (), PAPER7, ctx_r)
    for steps in (None, 5, "trr", [step], iter((step,))):
        assert replay_derivation(Derivation(step.before, steps, 1), PAPER7, ctx_r) is False
    assert replay_derivation(Derivation(step.before, (step,), 1), PAPER7, ctx_r) is True
    for lv in (0, 2, 3):
        for d in (Derivation(r, (), lv), Derivation(step.before, (dataclasses.replace(step, level=lv),), lv)):
            assert replay_derivation(d, PAPER7, ctx_r) is False
    assert replay_derivation(Derivation(r, (), 1), PAPER7, ctx_r) is True
    doc = derivation_to_doc(Derivation(r, (), 2), ctx_r, "paper7")
    with pytest.raises(PathRwError, match="document 'start' is at level 1, not the document's 2"):
        replay_document(doc)


def test_a_step_atom_around_no_step_is_a_located_input_error(ctx_r):
    """``StepAtom(5)`` has no level, ``before``, ``after`` or ``rule``; each entry point raised AttributeError on it."""
    r, bad = Atom("r"), StepAtom(5)
    for t, pos in ((bad, ()), (Trans(r, bad), (1,)), (Sym(Trans(bad, r)), (0, 0))):
        assert [(v.kind, v.position, v.message) for v in validate(t, ctx_r).violations] == [
            ("bad-term", pos, "not a path term: StepAtom(step=5)")
        ]
        for call in (
            endpoints,
            word,
            lambda t, ctx: normalize(t, PAPER7, ctx),
            lambda t, ctx: decide_rw_equal(t, t, PAPER7, ctx),
            lambda t, ctx: decide_rw_equal(r, t, PAPER7, ctx),
            lambda t, ctx: format_term(t),
        ):
            with pytest.raises(BadStep, match="not a rewrite step: 5 at position") as caught:
                call(t, ctx_r)
            assert caught.value.position == pos
        assert replay_derivation(Derivation(t, (), 2), PAPER7, ctx_r) is False
    (violation,) = validate(Xi("v", bad), ctx_r).violations  # a former's body is checked by a raising fold
    assert (violation.kind, violation.position) == ("endpoint-error", (0,))


def test_a_refl_around_no_object_is_a_located_input_error(ctx_r):
    """``Refl(5)`` has no level or payload; each entry point raised AttributeError on it."""
    r, bad = Atom("r"), Refl(5)
    for t, pos in ((bad, ()), (Trans(r, bad), (1,)), (Sym(Trans(bad, r)), (0, 0))):
        assert [(v.kind, v.position, v.message) for v in validate(t, ctx_r).violations] == [
            ("bad-term", pos, "not a path term: Refl(obj=5)")
        ]
        calls = [
            endpoints,
            word,
            lambda t, ctx: normalize(t, PAPER7, ctx),
            lambda t, ctx: decide_rw_equal(t, t, PAPER7, ctx),
            lambda t, ctx: decide_rw_equal(r, t, PAPER7, ctx),
            lambda t, ctx: format_term(t),
        ]
        if pos != (1,):  # level and match_redexes read only the leftmost leaf: Trans(r, bad) is level 1 to them
            calls += [lambda t, ctx: level(t), lambda t, ctx: match_redexes(PAPER7, t)]
        for call in calls:
            with pytest.raises(NotAnObject, match="not an object: 5 at position") as caught:
                call(t, ctx_r)
            assert caught.value.position == pos
        assert replay_derivation(Derivation(t, (), 1), PAPER7, ctx_r) is False
    (violation,) = validate(Xi("v", bad), ctx_r).violations  # a former's body is checked by a raising fold
    assert (violation.kind, violation.position) == ("endpoint-error", (0,))
    assert level(Trans(r, bad)) == 1


def test_wrong_typed_input_is_a_type_error():
    for call, message in ((read_back, "not a reduced word: 5"), (parse_script, "not script text: 5")):
        with pytest.raises(TypeError, match=message):
            call(5)


def test_replay_rejects_a_hand_built_step_that_does_not_link(ctx_rs):
    """The second step is legal and its subterm at its position is the one there, but its term differs elsewhere."""
    r, ssr, sss = Atom("r"), Sym(Sym(Atom("r"))), Sym(Sym(Atom("s")))
    t = Trans(Trans(r, Refl(el("b"))), sss)
    after, first = contract_once(t, "trr", (0,), PAPER7, ctx_rs)
    _, linked = contract_once(after, "ss", (1,), PAPER7, ctx_rs)
    _, unlinked = contract_once(Trans(ssr, sss), "ss", (1,), PAPER7, ctx_rs)
    assert replay_derivation(Derivation(t, (first, linked), 1), PAPER7, ctx_rs)
    assert replay_derivation(Derivation(t, (first, unlinked), 1), PAPER7, ctx_rs) is False


def test_replay_rejects_an_unknown_direction(ctx_r):
    _, d = normalize(Trans(Atom("r"), Refl(el("b"))), PAPER7, ctx_r)
    inv = invert_derivation(d)
    assert inv.steps[0].direction == "reverse" and replay_derivation(inv, PAPER7, ctx_r)
    for direction in ("sideways", "Reverse", ""):
        bad = Derivation(inv.start, (dataclasses.replace(inv.steps[0], direction=direction),), 1)
        assert not replay_derivation(bad, PAPER7, ctx_r)


def test_flipping_a_step_with_an_unknown_direction_is_an_error(ctx_r):
    _, d = normalize(Trans(Atom("r"), Refl(el("b"))), PAPER7, ctx_r)
    step = d.steps[0]
    assert (step.rule, step.direction) == ("trr", "forward")
    assert step.flipped() == RewriteStep("trr", (), "reverse", step.after, step.before, 1)
    assert step.flipped().flipped() == step
    assert derivation_to_path(invert_derivation(d)) == Sym(StepAtom(step))
    sideways = dataclasses.replace(step, direction="sideways")
    message = "step direction must be 'forward' or 'reverse', not 'sideways'"
    for build in (sideways.flipped, lambda: invert_derivation(Derivation(d.start, (sideways,), 1)),
                  lambda: derivation_to_path(Derivation(d.start, (sideways,), 1))):
        with pytest.raises(PathRwError, match=message):
            build()


def test_replay_rejects_wrong_rule_set(ctx_rs):
    t = Sym(Trans(Atom("r"), Atom("s")))
    d = canonical_derivation(t, GROUPOID_COMPLETE, ctx_rs)
    assert any(step.rule == "st" for step in d.steps)
    assert replay_derivation(d, GROUPOID_COMPLETE, ctx_rs)
    assert not replay_derivation(d, PAPER7, ctx_rs)


# --- lifting -----------------------------------------------------------------


def test_lift_single_step(ctx_r):
    src_term = Sym(Refl(el("a")))
    _, d = normalize(src_term, PAPER7, ctx_r)
    lifted = derivation_to_path(d)
    assert isinstance(lifted, StepAtom)
    assert level(lifted) == 2
    from pathrw.terms import endpoints

    assert endpoints(lifted, ctx_r) == (Object(1, src_term), Object(1, Refl(el("a"))))


def test_lift_empty_is_trivial_path(ctx_r):
    d = Derivation(Atom("r"), (), 1)
    assert derivation_to_path(d) == Refl(Object(1, Atom("r")))


def test_lift_two_steps_folds_left_and_replays(ctx_r):
    t = Trans(Refl(el("a")), Trans(Atom("r"), Sym(Atom("r"))))
    _, d = normalize(t, PAPER7, ctx_r)
    assert len(d.steps) == 2
    lifted = derivation_to_path(d)
    assert lifted == Trans(StepAtom(d.steps[0]), StepAtom(d.steps[1]))
    # The lifted term's atoms reconstruct the derivation.
    assert _steps_of(lifted) == list(d.steps)


def test_lift_reverse_steps_become_inverses(ctx_fan):
    lhs = Trans(Atom("r"), Trans(Sym(Atom("r")), Atom("s")))
    verdict = decide_rw_equal(lhs, Atom("s"), PAPER7, ctx_fan)
    lifted = derivation_to_path(verdict.witness)
    assert level(lifted) == 2
    assert _steps_of(lifted) == list(verdict.witness.steps)


def _steps_of(lifted) -> list[RewriteStep]:
    match lifted:
        case StepAtom(step):
            return [step]
        case Sym(StepAtom(step)):
            return [step.flipped()]
        case Trans(left, right):
            return _steps_of(left) + _steps_of(right)
        case Refl(_):
            return []
    raise AssertionError(f"unexpected lifted shape: {lifted!r}")


# --- measure -----------------------------------------------------------------


def test_mu_measure_values():
    r = Atom("r")
    assert mu_measure(r) == (1, 0)
    assert mu_measure(Trans(r, Sym(r))) == (4, 1)
    assert mu_measure(Trans(Trans(r, r), r)) == (5, 4)
    assert mu_measure(Trans(r, Trans(r, r))) == (5, 2)
