"""Derivations recorded as edits, against full steps and the reference walker.

The engine records a derivation as its start, its end and one edit per step,
and builds the steps only when they are read. On random level-1 terms of
50-500 nodes, alternating Sym/Trans nests included, under both rule sets and
both strategies:

- the traces of ``normalize`` and ``canonical_derivation`` equal the
  reference walker's, ``test_walker.reference_trace``;
- every engine-built witness gets the replay verdict of its full-step copy
  ``Derivation(d.start, d.steps, d.level)``;
- an edit-form derivation corrupted through the private constructor (wrong
  rule, shifted position, wrong contractum, flipped direction) is rejected
  in both forms whenever the reference judges the corrupted step illegal;
- ``decide_rw_equal`` agrees with ``oracle_equal`` on pairs of one word built
  apart and on pairs of one pair of endpoints but two words, and each
  ``Equal`` witness replays.

Reading the steps of an engine-built derivation caches them beside its
edits: replay, inversion and concatenation still take the edits.

The traces are also compared on terms with paths under nested xi/mu/nu
formers and on level-2 terms lifted from random derivations.

Also the long chain ``tau(…tau(r, rho(b))…, rho(b))``: it is walked, and its
witness replayed, without building a single step.
"""

from __future__ import annotations

import copy as copy_module
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from pathrw import engine
from pathrw.engine import (
    FORWARD,
    REVERSE,
    Derivation,
    Equal,
    NotEqual,
    RewriteStep,
    canonical_derivation,
    concat_derivations,
    decide_rw_equal,
    invert_derivation,
    normalize,
    replay_derivation,
)
from pathrw.oracle import oracle_equal, read_back, word
from pathrw.rules import GROUPOID_COMPLETE, PAPER7, step_name
from pathrw.terms import (
    Atom,
    Mu,
    Nu,
    Object,
    Refl,
    Sym,
    Trans,
    Xi,
    endpoints,
    level,
    replace_at,
)

from conftest import LAM_PATHS, TRIANGLE, former_term_strategy, large_term_strategy, lifted_term_strategy
from test_kernel import ref_build_template, ref_path_children, subterms
from test_walker import STRATEGIES, _trace, match_pattern, reference_trace

RULE_SETS = (PAPER7, GROUPOID_COMPLETE)
LARGE = large_term_strategy(TRIANGLE)


def _traces_match_reference(t, ctx):
    for rs in RULE_SETS:
        for strategy in STRATEGIES:
            nf, d = normalize(t, rs, ctx, strategy)
            assert _trace(d) == reference_trace(t, rs, ctx, strategy, rs)
            assert nf == d.end == (d.steps[-1].after if d.steps else t)
        d = canonical_derivation(t, rs, ctx)
        assert _trace(d) == reference_trace(t, GROUPOID_COMPLETE, ctx, "leftmost-innermost", rs)


@settings(max_examples=5)
@given(LARGE)
def test_traces_of_large_terms_match_reference(t):
    _traces_match_reference(t, TRIANGLE)


@settings(max_examples=40)
@given(former_term_strategy(LAM_PATHS))
def test_traces_under_formers_match_reference(t):
    assert any(type(node) in (Xi, Mu, Nu) for node in subterms(t))
    _traces_match_reference(t, LAM_PATHS)


@settings(max_examples=60)
@given(lifted_term_strategy(TRIANGLE))
def test_traces_of_lifted_terms_match_reference(t):
    assert level(t) == 2
    _traces_match_reference(t, TRIANGLE)


# The triangle's cycle at each element: u^-1 r s at c, and its rotations at a and b.
CYCLES = {
    "c": Trans(Sym(Atom("u")), Trans(Atom("r"), Atom("s"))),
    "a": Trans(Atom("r"), Trans(Atom("s"), Sym(Atom("u")))),
    "b": Trans(Atom("s"), Trans(Sym(Atom("u")), Atom("r"))),
}


@settings(max_examples=40)
@given(LARGE)
def test_decide_agrees_with_the_oracle_on_large_pairs(t):
    """``t`` against its canonical form, built apart (one word), and against ``t`` then the cycle at its end (two)."""
    canonical = read_back(word(t, TRIANGLE))
    cycled = Trans(t, CYCLES[endpoints(t, TRIANGLE)[1].payload])
    assert endpoints(cycled, TRIANGLE) == endpoints(t, TRIANGLE)
    for pair, same in (((t, canonical), True), ((canonical, t), True), ((t, cycled), False), ((cycled, t), False)):
        assert oracle_equal(*pair, TRIANGLE) is same
        for rs in RULE_SETS:
            verdict = decide_rw_equal(*pair, rs, TRIANGLE)
            if same:
                d = verdict.witness
                assert d.start is pair[0] and d.end == pair[1] and replay_derivation(d, rs, TRIANGLE)
            else:
                assert verdict == NotEqual("reduced words differ")


def _witnesses(t):
    """Engine-built derivations from ``t``: traces, canonical derivations, Equal witnesses, and their algebra."""
    out = []
    for rs in RULE_SETS:
        for strategy in STRATEGIES:
            out.append(normalize(t, rs, TRIANGLE, strategy)[1])
        d = canonical_derivation(t, rs, TRIANGLE)
        verdict = decide_rw_equal(t, out[-1].end, rs, TRIANGLE)
        assert isinstance(verdict, Equal)
        out += [d, verdict.witness, invert_derivation(d), concat_derivations(d, invert_derivation(d))]
    return out


@settings(max_examples=6)
@given(LARGE)
def test_witnesses_replay_as_their_full_step_copies(t):
    for d in _witnesses(t):
        assert d._edits is not None
        end = d.end
        verdicts = [replay_derivation(d, rs, TRIANGLE) for rs in RULE_SETS]  # before the steps are read
        assert verdicts[1]  # everything replays against the groupoid-complete rules
        copy = Derivation(d.start, d.steps, d.level)
        assert d._edits is not None and copy == d and copy.end == end
        assert [replay_derivation(copy, rs, TRIANGLE) for rs in RULE_SETS] == verdicts


def test_edit_form_reads_as_its_steps(ctx_rs):
    """Fields, ``==``, ``hash``, ``repr``, ``replace``, copies and pickles are those of the full-step copy."""
    t = Sym(Trans(Trans(Atom("r"), Refl(Object(0, "b"))), Atom("s")))

    def lazy():
        d = canonical_derivation(t, PAPER7, ctx_rs)
        assert d._edits is not None and not _steps_built(d)
        return d

    d = lazy()
    copy = Derivation(d.start, d.steps, d.level)
    assert _steps_built(d) and d._edits is not None and d.end == copy.end  # the steps are cached beside the edits
    assert [f.name for f in dataclasses.fields(lazy())] == ["start", "steps", "level"]
    for read in (lambda d: d, lambda d: copy_module.deepcopy(d), lambda d: pickle.loads(pickle.dumps(d))):
        for fresh in (lazy(), invert_derivation(invert_derivation(lazy()))):
            assert read(fresh) == copy and copy == read(fresh)
    assert hash(lazy()) == hash(copy) and repr(lazy()) == repr(copy)
    assert dataclasses.replace(lazy(), level=1) == copy
    assert dataclasses.replace(lazy(), steps=()) == Derivation(t, (), 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lazy().steps = ()


def test_reading_the_steps_keeps_the_edit_form(ctx_rs, monkeypatch):
    """After ``steps`` is read, replay follows the edits and the algebra keeps them; the step is below the root."""
    nf, d = normalize(Trans(Atom("r"), Sym(Sym(Atom("s")))), PAPER7, ctx_rs)
    edits = d._edits
    assert [(step.rule, step.position) for step in d.steps] == [("ss", (1,))]
    assert d._edits is edits and d.end is nf
    followed = []
    real = engine._follow
    monkeypatch.setattr(engine, "_follow", lambda t, edits, *rest: followed.append(edits) or real(t, edits, *rest))
    assert replay_derivation(d, PAPER7, ctx_rs) and followed == [edits]
    inverse = invert_derivation(d)
    for e in (inverse, concat_derivations(d, inverse), concat_derivations(inverse, d)):
        assert e._edits is not None and not _steps_built(e)
        assert replay_derivation(e, PAPER7, ctx_rs) and followed[-1] is e._edits
    assert inverse.end is d.start and inverse.start is nf


def _steps_built(d):
    """Whether the ``steps`` slot itself is set, read past the fallback that builds it."""
    try:
        Derivation.steps.__get__(d, Derivation)
    except AttributeError:
        return False
    return True


def _subterm(t, pos):
    for i in pos:
        children = ref_path_children(t)
        if not 0 <= i < len(children):
            return None
        t = children[i]
    return t


def _legal(cur, rule, pos, direction, new):
    """The reference's view of a step in ``cur``: ``rule`` at ``pos`` relates the subterm there and ``new``."""
    sub = _subterm(cur, pos)
    schema = next((s for s in GROUPOID_COMPLETE.schemas if s.name == rule), None)
    if sub is None or schema is None or direction not in (FORWARD, REVERSE):
        return False
    redex, contractum = (sub, new) if direction == FORWARD else (new, sub)
    binding = match_pattern(schema.lhs, redex)
    return binding is not None and ref_build_template(schema.rhs, binding, TRIANGLE) == contractum


def _corruptions(edit, redex):
    """The edit with a wrong rule, a shifted position, a wrong contractum, or a flipped direction."""
    rule, pos, direction, old, new = edit
    wrong = next(s.name for s in GROUPOID_COMPLETE.schemas if match_pattern(s.lhs, redex) is None)
    yield (step_name(wrong, 1), pos, direction, old, new)
    for shifted in (pos + (0,), pos[:-1], pos[:-1] + (1 - pos[-1],) if pos and pos[-1] < 2 else None):
        if shifted is not None and shifted != pos:
            yield (rule, shifted, direction, old, new)
    yield (rule, pos, direction, old, Sym(Sym(new)))
    yield (rule, pos, REVERSE if direction == FORWARD else FORWARD, old, new)


@settings(max_examples=8)
@given(LARGE, st.randoms(use_true_random=False))
def test_corrupted_edits_are_rejected_in_both_forms(t, rng):
    """Edit ``j`` of a derivation corrupted, the derivation cut after it; its copy built step by step."""
    checked = 0
    for d in _witnesses(t)[::2]:  # per rule set: the innermost trace, the canonical derivation, its inverse
        if not d._edits:
            continue
        j = rng.randrange(len(d._edits))
        prefix = Derivation._from_edits(d.start, d._edits[: j + 1], None, d.level).steps
        before, after = prefix[j].before, prefix[j].after
        edit = d._edits[j]
        redex = edit[3] if edit[2] == FORWARD else edit[4]
        for bad_edit in _corruptions(edit, redex):
            rule, pos, direction, _, new = bad_edit
            if _subterm(before, pos) is None or _legal(before, rule, pos, direction, new):
                continue  # a step the position cannot hold, or a legal one: not a corruption to reject
            bad = Derivation._from_edits(d.start, d._edits[:j] + (bad_edit,), after, d.level)
            step = RewriteStep(rule, pos, direction, before, replace_at(before, pos, new), d.level)
            copy = Derivation(d.start, prefix[:j] + (step,), d.level)
            assert not replay_derivation(bad, GROUPOID_COMPLETE, TRIANGLE), bad_edit
            assert not replay_derivation(copy, GROUPOID_COMPLETE, TRIANGLE), bad_edit
            checked += 1
        assert bad.steps == copy.steps  # the last one, read
    assert checked > 0


def _chain(n):
    t, rho_b = Atom("r"), Refl(Object(0, "b"))
    for _ in range(n):
        t = Trans(t, rho_b)
    return t


def test_long_chain_is_walked_and_replayed_without_building_steps(ctx_r, monkeypatch):
    """The 2,000-link chain at the default recursion limit; building any ``RewriteStep`` fails the test."""
    t = _chain(2000)

    def no_steps(*args):
        raise AssertionError("a step was built")

    monkeypatch.setattr(engine, "RewriteStep", no_steps)
    nf, d = normalize(t, PAPER7, ctx_r)
    assert nf == Atom("r") and d.end is nf
    c = canonical_derivation(t, PAPER7, ctx_r)
    assert c.end == Atom("r")
    assert replay_derivation(c, PAPER7, ctx_r)
    assert replay_derivation(invert_derivation(d), PAPER7, ctx_r)
    with pytest.raises(AssertionError, match="a step was built"):
        d.steps
