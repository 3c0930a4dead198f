"""Rule schemas: golden contractions, matching order, level-uniform schemas
and level-suffixed step names, endpoint soundness, measure decrease, the extension rules' seven-rule
witnesses, and the rendered derivations."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from pathrw import rules
from pathrw.engine import (
    Derivation,
    _expand,
    contract_once,
    mu_measure,
    normalize,
    replay_derivation,
)
from pathrw.errors import PathRwError, UnknownRule
from pathrw.oracle import enumerate_terms
from pathrw.rules import (
    GROUPOID_COMPLETE,
    PAPER7,
    SS,
    TRR,
    TSR,
    TT,
    PRefl,
    PSym,
    PTrans,
    PVar,
    RuleSchema,
    RuleSet,
    contractions,
    explain_rule,
    match_redexes,
    redexes,
    rule_set,
    step_name,
)
from pathrw.terms import (
    Atom,
    Object,
    Refl,
    StepAtom,
    Sym,
    Trans,
    endpoints,
    replace_at,
    subterm_at,
)

from test_kernel import ref_build_template, ref_path_children


def el(name):
    return Object(0, name)


def postorder_positions(t):
    """All positions, children before parents, left to right (innermost first)."""
    for i, child in enumerate(ref_path_children(t)):
        for pos in postorder_positions(child):
            yield (i,) + pos
    yield ()


GOLDEN = [
    # rule, lhs builder, rhs builder (r: a=b; extra atoms for tt)
    ("sr", lambda: Sym(Refl(el("a"))), lambda: Refl(el("a"))),
    ("ss", lambda: Sym(Sym(Atom("r"))), lambda: Atom("r")),
    ("tr", lambda: Trans(Atom("r"), Sym(Atom("r"))), lambda: Refl(el("a"))),
    ("tsr", lambda: Trans(Sym(Atom("r")), Atom("r")), lambda: Refl(el("b"))),
    ("trr", lambda: Trans(Atom("r"), Refl(el("b"))), lambda: Atom("r")),
    ("tlr", lambda: Trans(Refl(el("a")), Atom("r")), lambda: Atom("r")),
]


@pytest.mark.parametrize("rule,lhs,rhs", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_contractions(rule, lhs, rhs, ctx_r):
    contractum, step = contract_once(lhs(), rule, (), PAPER7, ctx_r)
    assert contractum == rhs()
    assert step.rule == rule and step.direction == "forward"


def test_golden_tt(ctx_chain4):
    t0, r0, s0 = Atom("t0"), Atom("r0"), Atom("s0")
    lhs = Trans(Trans(t0, r0), s0)
    contractum, _ = contract_once(lhs, "tt", (), PAPER7, ctx_chain4)
    assert contractum == Trans(t0, Trans(r0, s0))


def test_match_redexes_examples(ctx_r, ctx_chain4):
    assert match_redexes(PAPER7, Sym(Refl(el("a")))) == [("sr", ())]
    assert match_redexes(PAPER7, Atom("r")) == []
    triple = Trans(Trans(Atom("t0"), Atom("r0")), Atom("s0"))
    assert match_redexes(PAPER7, triple) == [("tt", ())]


def test_match_redexes_innermost_order(ctx_rs):
    t = Trans(Trans(Atom("r"), Sym(Atom("r"))), Sym(Sym(Atom("s"))))
    found = match_redexes(PAPER7, t)
    # Postorder: the tr redex in the left factor, the ss redex in the right
    # factor, then the tt redex at the root.
    assert found == [("tr", (0,)), ("ss", (1,)), ("tt", ())]
    positions = list(postorder_positions(t))
    indices = [positions.index(pos) for _, pos in found]
    assert indices == sorted(indices)


def test_rules_preserve_endpoints_on_all_redexes(ctx_rs):
    for t in enumerate_terms(ctx_rs, 8):
        ends = endpoints(t, ctx_rs)
        for rule, pos in match_redexes(PAPER7, t):
            contractum, step = contract_once(t, rule, pos, PAPER7, ctx_rs)
            assert endpoints(contractum, ctx_rs) == ends
            assert endpoints(step.before, ctx_rs) == endpoints(step.after, ctx_rs)


def test_seven_rules_strictly_decrease_measure(ctx_rs):
    for t in enumerate_terms(ctx_rs, 8):
        mu = mu_measure(t)
        for rule, pos in match_redexes(PAPER7, t):
            contractum, _ = contract_once(t, rule, pos, PAPER7, ctx_rs)
            assert mu_measure(contractum) < mu
            if rule == "tt":
                assert mu_measure(contractum)[0] == mu[0]


def test_find_returns_the_rule_sets_own_schema_at_every_level():
    for schema in GROUPOID_COMPLETE.schemas:
        for lv in (1, 2, 3, 2000):
            assert GROUPOID_COMPLETE.find(schema.name, lv) is schema
            assert GROUPOID_COMPLETE.find(step_name(schema.name, lv), lv) is schema


def test_step_names_carry_level():
    assert [step_name("tt", lv) for lv in (1, 2, 3, 2000)] == ["tt", "tt2", "tt3", "tt2000"]


def test_find_rejects_wrong_level_suffix():
    with pytest.raises(UnknownRule):
        PAPER7.find("tt2", 1)


def test_find_error_messages():
    for lv in (1, 2, 3):
        PAPER7.find("tt", lv)  # fill the memo first
    with pytest.raises(UnknownRule, match="'tt02' is pinned to level 2, not 1"):
        PAPER7.find("tt02", 1)
    for name in ("", "Tt", "t-t", "2", "t2t", "tt\n"):
        with pytest.raises(UnknownRule, match="malformed rule name"):
            PAPER7.find(name, 1)
    with pytest.raises(UnknownRule, match="no rule named 'st2' in rule set 'paper7'"):
        PAPER7.find("st2", 2)
    assert PAPER7.find("tt02", 2) is TT
    with pytest.raises(ValueError, match="levels start at 1"):
        PAPER7.find("tt", 0)


def test_find_returns_one_cached_instance_per_level():
    assert PAPER7.find("tt", 2) is PAPER7.find("tt2", 2) is TT
    assert PAPER7.find("tt", 1) is TT
    assert PAPER7.find("tt", 3) is TT


def test_derived_fields_leave_identity_unchanged(ctx_r):
    for schema in GROUPOID_COMPLETE.schemas:
        fields = (schema.name, schema.lhs, schema.rhs, schema.witness)
        copy = RuleSchema(*fields)
        assert copy.match is not schema.match
        assert copy == schema and hash(copy) == hash(schema) == hash(fields)
        assert repr(copy) == repr(schema) == (
            f"RuleSchema(name={schema.name!r}, lhs={schema.lhs!r}, rhs={schema.rhs!r}, "
            f"witness={schema.witness!r})"
        )
    fresh = RuleSet("paper7", PAPER7.schemas)
    for lv in (1, 2, 4):
        PAPER7.find("sr", lv)
    assert fresh == PAPER7 and hash(fresh) == hash(PAPER7) == hash(("paper7", PAPER7.schemas))
    assert repr(fresh) == repr(PAPER7) == f"RuleSet(name='paper7', schemas={PAPER7.schemas!r})"
    loaded = pickle.loads(pickle.dumps(GROUPOID_COMPLETE))
    assert loaded == GROUPOID_COMPLETE
    assert loaded.find("tt", 2).match(Trans(Trans(Atom("r"), Atom("s")), Atom("u")))
    triple = Trans(Trans(Atom("r"), Atom("s")), Atom("u"))
    assert loaded.contract(triple, ctx_r) == (loaded.find("tt", 1), Trans(Atom("r"), Trans(Atom("s"), Atom("u"))))
    assert loaded.matches(triple) == [(loaded.find("tt", 1), {"t": Atom("r"), "r": Atom("s"), "s": Atom("u")})]


def test_build_and_derive_stay_out_of_identity(ctx_rs):
    """Like ``match`` and ``contract``, they are generated again for every copy, and nothing else sees them."""
    st = GROUPOID_COMPLETE.find("st", 1)
    binding = {"r": Sym(Sym(Atom("r"))), "s": Atom("s")}
    built, derived = st.build(binding, ctx_rs), st.derive(binding, ctx_rs)
    assert built == Trans(Sym(Atom("s")), Sym(Sym(Sym(Atom("r"))))) and len(derived) == len(st.witness)
    copies = (copy.copy(st), copy.deepcopy(st), pickle.loads(pickle.dumps(st)), dataclasses.replace(st))
    for twin in copies + (RuleSchema(st.name, st.lhs, st.rhs, st.witness),):
        assert twin == st and hash(twin) == hash(st) and repr(twin) == repr(st)
        assert twin.build is not st.build and twin.derive is not st.derive
        assert twin.build(binding, ctx_rs) == built and twin.derive(binding, ctx_rs) == derived
    assert "build" not in repr(st) and "derive" not in repr(st)
    assert st.__reduce__() == (RuleSchema, (st.name, st.lhs, st.rhs, st.witness))


def test_schemas_sharing_a_name_are_rejected(ctx_r):
    """A witness names each step's rule, so one name must pick one schema."""
    unwrap = RuleSchema("x", PSym(PSym(PVar("r"))), PVar("r"))
    rewrap = RuleSchema("x", PTrans(PVar("r"), PRefl("y")), PSym(PSym(PVar("r"))))
    with pytest.raises(PathRwError, match="rule set 'twins' has two schemas named 'x'"):
        RuleSet("twins", (unwrap, rewrap))
    with pytest.raises(PathRwError, match="rule set 'more' has two schemas named 'sr'"):
        RuleSet("more", PAPER7.schemas + (PAPER7.schemas[0],))
    # Under distinct names, each fires as itself at every level; the step names carry the level.
    rewrap = RuleSchema("y", rewrap.lhs, rewrap.rhs)
    rs = RuleSet("pair", (unwrap, rewrap))
    _, d = normalize(Trans(Atom("r"), Refl(el("b"))), PAPER7, ctx_r)
    leaves = [(Atom("r"), Refl(el("b"))), (StepAtom(d.steps[0]), Refl(Object(1, Atom("r"))))]
    for (leaf, refl), names in zip(leaves, (["y", "x"], ["y2", "x2"])):
        _, fired = contractions(Trans(leaf, refl), rs, ctx_r)
        assert [s for s, *_ in fired] == [rewrap, unwrap]
        assert fired[0][0] is rewrap and fired[1][0] is unwrap
        assert [after for *_, after in fired] == [Sym(Sym(leaf)), leaf]
        _, d = normalize(Trans(leaf, refl), rs, ctx_r)
        assert [step.rule for step in d.steps] == names
        assert replay_derivation(d, rs, ctx_r)


def test_malformed_schemas_are_rejected_when_built():
    """A bare metavariable would match every term, and a template may build only what the pattern binds."""
    with pytest.raises(PathRwError, match="a left-hand side must not be a metavariable"):
        RuleSchema("v", PVar("r"), PSym(PVar("r")))
    with pytest.raises(KeyError, match="'q'"):
        RuleSchema("v", PSym(PVar("r")), PTrans(PVar("r"), PVar("q")))
    with pytest.raises(TypeError, match="not a pattern"):
        RuleSchema("v", Sym(PVar("r")), PVar("r"))
    # A witness step's template is compiled with the right-hand side, so it is checked alike.
    for template, error, message in ((PSym(PVar("q")), KeyError, "'q'"), (Sym(PVar("r")), TypeError, "not a template")):
        with pytest.raises(error, match=message):
            RuleSchema("v", PSym(PVar("r")), PVar("r"), witness=(("ss", (), "forward", template),))


def test_contractions_at_level_three_yield_the_rule_sets_own_schemas(ctx_r):
    _, p = contract_once(Trans(Atom("r"), Refl(el("b"))), "trr", (), PAPER7, ctx_r)
    _, q = contract_once(Trans(StepAtom(p), Refl(Object(1, Atom("r")))), "trr2", (), PAPER7, ctx_r)
    u = StepAtom(q)
    t = Trans(Trans(u, Sym(u)), u)
    _, fired = contractions(t, PAPER7, ctx_r, "leftmost-outermost")
    assert [schema for schema, *_ in fired] == [TT, TSR, TRR]
    assert all(schema is own for (schema, *_), own in zip(fired, (TT, TSR, TRR)))
    nf, d = normalize(t, PAPER7, ctx_r, "leftmost-outermost")
    assert nf == u and d.level == 3
    assert [(step.rule, step.position) for step in d.steps] == [("tt3", ()), ("tsr3", (1,)), ("trr3", ())]
    assert replay_derivation(d, PAPER7, ctx_r)


def test_the_walkers_return_what_they_found(ctx_r):
    """``contractions`` returns the normal form with its contractions, and ``redexes`` its matches: no generators."""
    assert [name for name, fn in vars(rules).items() if inspect.isgeneratorfunction(fn)] == []
    r, ssr = Atom("r"), Sym(Sym(Atom("r")))
    t = Trans(ssr, Refl(el("b")))
    assert contractions(t, PAPER7, ctx_r) == (r, [(SS, (0,), ssr, r), (TRR, (), Trans(r, Refl(el("b"))), r)])
    assert contractions(t, PAPER7, ctx_r, "leftmost-outermost") == (r, [(TRR, (), t, ssr), (SS, (), ssr, r)])
    assert redexes(PAPER7, t) == [(SS, {"r": r}, (0,)), (TRR, {"r": ssr, "x": el("b")}, ())]
    with pytest.raises(PathRwError) as caught:
        contractions(t, PAPER7, ctx_r, "bogus")
    assert type(caught.value) is PathRwError and str(caught.value) == "unknown strategy 'bogus'"


def _extension_redexes(ctx):
    """(level, schema, binding) per extension rule at levels 1 and 2, bound to composite terms."""
    x = Sym(Sym(Trans(Atom("r"), Refl(el("b")))))
    _, p = contract_once(x, "ss", (), PAPER7, ctx)
    _, q = contract_once(p.after, "trr", (), PAPER7, ctx)
    for lv, (r, s) in ((1, (Atom("r"), Atom("s"))), (2, (StepAtom(p), StepAtom(q)))):
        rs = Trans(r, s)
        bindings = {
            "st": {"r": rs, "s": Sym(s)},
            "trc": {"r": rs, "t": Sym(Sym(r))},
            "tsrc": {"r": rs, "t": Sym(rs)},
        }
        for schema in GROUPOID_COMPLETE.schemas:
            if schema.witness:
                assert GROUPOID_COMPLETE.find(step_name(schema.name, lv), lv) is schema
                yield lv, schema, bindings[schema.name]


def test_extension_witnesses_replay_under_the_seven_rules(ctx_rs):
    seen = []
    for lv, schema, binding in _extension_redexes(ctx_rs):
        seven = {step_name(s.name, lv) for s in PAPER7.schemas}
        redex = ref_build_template(schema.lhs, binding, ctx_rs)
        assert schema.match(redex) == binding
        contractum = ref_build_template(schema.rhs, binding, ctx_rs)
        assert schema.build(binding, ctx_rs) == contractum == schema.derive(binding, ctx_rs)[-1]
        _, tgt = endpoints(redex, ctx_rs)
        for term, pos in ((redex, ()), (Sym(Trans(redex, Refl(tgt))), (0, 0))):
            end = replace_at(term, pos, contractum)
            edits = tuple(_expand(schema, pos, subterm_at(term, pos), ctx_rs, lv))
            d = Derivation._from_edits(term, edits, end, lv)
            assert len(d.steps) == len(schema.witness)
            assert {step.rule for step in d.steps} <= seven
            assert replay_derivation(d, PAPER7, ctx_rs)
            assert d.steps[-1].after == end
        seen.append((schema.name, lv))
    assert seen == [(name, lv) for lv in (1, 2) for name in ("st", "trc", "tsrc")]


def test_rule_sets():
    assert [s.name for s in PAPER7.schemas] == ["sr", "ss", "tr", "tsr", "tlr", "trr", "tt"]
    assert {s.name for s in GROUPOID_COMPLETE.schemas} == {
        "sr", "ss", "tr", "tsr", "tlr", "trr", "tt", "st", "trc", "tsrc",
    }
    assert all(not s.witness for s in PAPER7.schemas)
    assert [s.name for s in GROUPOID_COMPLETE.schemas if s.witness] == ["st", "trc", "tsrc"]
    assert rule_set("paper7") is PAPER7
    copy = RuleSet("paper7", PAPER7.schemas)
    assert copy == PAPER7 and hash(copy) == hash(PAPER7) and repr(copy) == repr(PAPER7)
    assert "_by_head" not in repr(PAPER7)
    with pytest.raises(UnknownRule):
        rule_set("nope")


def test_explain_rule_goldens():
    sr = explain_rule("sr")
    assert "x ={rho} x : A" in sr
    assert "x ={sigma(rho)} x : A" in sr
    assert "|>sr" in sr
    tt = explain_rule("tt")
    assert "x ={tau(tau(t, r), s)} z : A" in tt
    assert "x ={tau(t, tau(r, s))} z : A" in tt
    assert tt.count("(tau)") == 4
    for name in ("ss", "tr", "tsr", "trr", "tlr"):
        assert explain_rule(name)


def test_explain_rule_unknown():
    with pytest.raises(UnknownRule):
        explain_rule("xyz")
