"""Rule schemas: golden contractions, matching order, level instantiation,
endpoint soundness, measure decrease, and the rendered derivations."""

from __future__ import annotations

import pickle

import pytest

from pathrw.engine import contract_once, mu_measure, normalize, replay_derivation
from pathrw.errors import PathRwError, UnknownRule
from pathrw.oracle import enumerate_terms
from pathrw.rules import (
    GROUPOID_COMPLETE,
    PAPER7,
    TT,
    PRefl,
    PSym,
    PTrans,
    PVar,
    RuleSchema,
    RuleSet,
    contractions,
    explain_rule,
    instantiate_at_level,
    match_redexes,
    rule_set,
)
from pathrw.terms import Atom, Object, Refl, StepAtom, Sym, Trans, endpoints, postorder_positions


def el(name):
    return Object(0, name)


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


def test_instantiate_identity_at_level_1():
    for schema in PAPER7.schemas:
        assert instantiate_at_level(schema, 1) == schema


def test_instantiate_names_carry_level():
    tt = PAPER7.find("tt", 1)
    assert instantiate_at_level(tt, 2).display_name == "tt2"
    assert instantiate_at_level(tt, 3).display_name == "tt3"


def test_find_rejects_wrong_level_suffix():
    with pytest.raises(UnknownRule):
        PAPER7.find("tt2", 1)


def test_find_error_messages():
    for lv in (1, 2, 3):
        PAPER7.find("tt", lv)  # fill the per-level cache first
    with pytest.raises(UnknownRule, match="'tt02' is pinned to level 2, not 1"):
        PAPER7.find("tt02", 1)
    for name in ("", "Tt", "t-t", "2", "t2t", "tt\n"):
        with pytest.raises(UnknownRule, match="malformed rule name"):
            PAPER7.find(name, 1)
    with pytest.raises(UnknownRule, match="no rule named 'st2' in rule set 'paper7'"):
        PAPER7.find("st2", 2)
    assert PAPER7.find("tt02", 2).display_name == "tt2"
    with pytest.raises(ValueError, match="levels start at 1"):
        PAPER7.find("tt", 0)


def test_find_returns_one_cached_instance_per_level():
    assert PAPER7.find("tt", 2) is PAPER7.find("tt2", 2)
    assert PAPER7.find("tt", 1) is TT
    assert PAPER7.find("tt", 3) == instantiate_at_level(TT, 3)


def test_derived_fields_leave_identity_unchanged():
    for schema in GROUPOID_COMPLETE.schemas:
        fields = (schema.name, schema.lhs, schema.rhs, schema.level, schema.extension)
        copy = RuleSchema(*fields)
        assert copy.match is not schema.match
        assert copy == schema and hash(copy) == hash(schema) == hash(fields)
        assert repr(copy) == repr(schema) == (
            f"RuleSchema(name={schema.name!r}, lhs={schema.lhs!r}, rhs={schema.rhs!r}, "
            f"level=1, extension={schema.extension!r})"
        )
    fresh = RuleSet("paper7", PAPER7.schemas)
    for lv in (1, 2, 4):
        PAPER7.find("sr", lv)
    assert fresh == PAPER7 and hash(fresh) == hash(PAPER7) == hash(("paper7", PAPER7.schemas))
    assert repr(fresh) == repr(PAPER7) == f"RuleSet(name='paper7', schemas={PAPER7.schemas!r})"
    loaded = pickle.loads(pickle.dumps(GROUPOID_COMPLETE))
    assert loaded == GROUPOID_COMPLETE
    assert loaded.find("tt", 2).match(Trans(Trans(Atom("r"), Atom("s")), Atom("u")))


def test_schemas_sharing_a_name_are_rejected(ctx_r):
    """A witness names each step's rule, so one name must pick one schema."""
    unwrap = RuleSchema("x", PSym(PSym(PVar("r"))), PVar("r"))
    rewrap = RuleSchema("x", PTrans(PVar("r"), PRefl("y")), PSym(PSym(PVar("r"))))
    with pytest.raises(PathRwError, match="rule set 'twins' has two schemas named 'x'"):
        RuleSet("twins", (unwrap, rewrap))
    with pytest.raises(PathRwError, match="rule set 'more' has two schemas named 'sr'"):
        RuleSet("more", PAPER7.schemas + (PAPER7.schemas[0],))
    # Under distinct names, each level's instances keep their own schema's rhs.
    rewrap = RuleSchema("y", rewrap.lhs, rewrap.rhs)
    rs = RuleSet("pair", (unwrap, rewrap))
    _, d = normalize(Trans(Atom("r"), Refl(el("b"))), PAPER7, ctx_r)
    leaves = [(Atom("r"), Refl(el("b"))), (StepAtom(d.steps[0]), Refl(Object(1, Atom("r"))))]
    for lv, (leaf, refl) in enumerate(leaves, start=1):
        fired = list(contractions(Trans(leaf, refl), rs, ctx_r))
        assert [(s.lhs, s.rhs, s.level) for s, *_ in fired] == [
            (rewrap.lhs, rewrap.rhs, lv),
            (unwrap.lhs, unwrap.rhs, lv),
        ]
        assert [after for *_, after in fired] == [Sym(Sym(leaf)), leaf]
    _, d = normalize(Trans(Atom("r"), Refl(el("b"))), rs, ctx_r)
    assert [step.rule for step in d.steps] == ["y", "x"]
    assert replay_derivation(d, rs, ctx_r)


def test_rule_sets():
    assert [s.name for s in PAPER7.schemas] == ["sr", "ss", "tr", "tsr", "tlr", "trr", "tt"]
    assert {s.name for s in GROUPOID_COMPLETE.schemas} == {
        "sr", "ss", "tr", "tsr", "tlr", "trr", "tt", "st", "trc", "tsrc",
    }
    assert all(not s.extension for s in PAPER7.schemas)
    assert [s.name for s in GROUPOID_COMPLETE.schemas if s.extension] == ["st", "trc", "tsrc"]
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
