"""Weak groupoid laws: composition, single-step witnesses, the randomized
suite, and level uniformity up the tower."""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest

from pathrw import engine, groupoid, rules
from pathrw.engine import (
    Derivation,
    Equal,
    NotEqual,
    concat_derivations,
    contract_once,
    decide_rw_equal,
    derivation_to_path,
    invert_derivation,
    normalize,
    replay_derivation,
)
from pathrw.errors import EndpointMismatch, LevelMismatch, PathRwError
from pathrw.groupoid import (
    LAWS,
    LawReport,
    LawSuiteReport,
    check_assoc,
    check_inverses,
    check_units,
    compose,
    _composable_triple,
    _random_path,
    _random_term_at_level,
    _wrap,
    _WRAP_RULES,
    run_laws,
)
from pathrw.lam import Abs, Var
from pathrw.oracle import enumerate_terms, oracle_equal
from pathrw.rules import GROUPOID_COMPLETE, PAPER7, RReflAtSource, RReflAtTarget, match_redexes
from pathrw.terms import Atom, AtomDecl, Context, Object, Refl, StepAtom, Sym, Trans, endpoints, level

from conftest import TRIANGLE, el


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


# The triangle next to lambda-valued elements joined by a tagged atom.
TRIANGLE_LAM = Context(
    ("A", "F"),
    {"a": "A", "b": "A", "c": "A", "m": "F", "n": "F"},
    {"m": Abs("x", Var("x")), "n": Abs("y", Var("y"))},
    {**TRIANGLE.atoms, "al": AtomDecl("m", "n", "F", "alpha")},
)


# --- the sampler and suite runner as first written, kept as the reference ---


def ref_compose(s, r, ctx):
    _, s_tgt = endpoints(s, ctx)
    r_src, _ = endpoints(r, ctx)
    if s_tgt != r_src:
        raise EndpointMismatch((), s_tgt, r_src)
    return Trans(s, r)


def ref_single_step_report(law, lhs, rule, lv, inputs, ctx):
    _, step = contract_once(lhs, rule, (), PAPER7, ctx)
    witness = Derivation(lhs, (step,), lv)
    return LawReport(law, lv, inputs, witness, replay_derivation(witness, PAPER7, ctx))


def ref_check_assoc(s, r, t, lv, ctx):
    lhs = ref_compose(ref_compose(s, r, ctx), t, ctx)
    return ref_single_step_report("assoc", lhs, "tt", lv, (s, r, t), ctx)


def ref_check_units(s, lv, ctx):
    src, tgt = endpoints(s, ctx)
    left = ref_single_step_report("left-unit", Trans(Refl(src), s), "tlr", lv, (s,), ctx)
    right = ref_single_step_report("right-unit", Trans(s, Refl(tgt)), "trr", lv, (s,), ctx)
    return left, right


def ref_check_inverses(s, lv, ctx):
    left = ref_single_step_report("left-inverse", Trans(s, Sym(s)), "tr", lv, (s,), ctx)
    right = ref_single_step_report("right-inverse", Trans(Sym(s), s), "tsr", lv, (s,), ctx)
    return left, right


def ref_run_laws(ctx, lv, samples, seed, rng):
    """``run_laws`` drawing from ``rng``, which starts seeded with ``seed``."""
    reports = []
    for _ in range(samples):
        s, r, t = ref_composable_triple(ctx, lv, rng)
        reports.append(ref_check_assoc(s, r, t, lv, ctx))
        reports.extend(ref_check_units(s, lv, ctx))
        reports.extend(ref_check_inverses(s, lv, ctx))
    return LawSuiteReport(lv, samples, seed, tuple(reports))


def ref_composable_triple(ctx, lv, rng):
    if lv == 1:
        s = ref_random_path(ctx, rng, depth=rng.randint(0, 3))
        _, s_tgt = endpoints(s, ctx)
        r = ref_random_path_from(s_tgt, ctx, rng, depth=rng.randint(0, 2))
        _, r_tgt = endpoints(r, ctx)
        t = ref_random_path_from(r_tgt, ctx, rng, depth=rng.randint(0, 2))
        return s, r, t
    u = ref_random_term_at_level(ctx, lv - 1, rng)
    s, v = ref_lift_from(u, ctx, rng)
    r, w = ref_lift_from(v, ctx, rng)
    t, _ = ref_lift_from(w, ctx, rng)
    return s, r, t


def ref_random_term_at_level(ctx, lv, rng):
    if lv == 1:
        return ref_wrap(ref_random_path(ctx, rng, depth=rng.randint(0, 2)), ctx, rng)[0]
    base = ref_random_term_at_level(ctx, lv - 1, rng)
    return ref_lift_from(base, ctx, rng)[0]


def ref_lift_from(u, ctx, rng):
    d_forward = ref_random_step_derivation(u, ctx, rng)
    v, d_unwrap = ref_recorded_wrap(d_forward.end, ctx, rng)
    d = concat_derivations(d_forward, invert_derivation(d_unwrap))
    lifted = ref_wrap(derivation_to_path(d), ctx, rng)[0]
    return lifted, v


def ref_random_step_derivation(u, ctx, rng):
    steps = []
    cur = u
    for _ in range(rng.randint(0, 3)):
        redexes = match_redexes(PAPER7, cur)
        if not redexes:
            break
        rule, pos = rng.choice(redexes)
        cur, step = contract_once(cur, rule, pos, PAPER7, ctx)
        steps.append(step)
    return Derivation(u, tuple(steps), level(u))


def ref_recorded_wrap(w, ctx, rng):
    v, rules = ref_wrap(w, ctx, rng)
    steps = []
    cur = v
    for rule in reversed(rules):
        cur, step = contract_once(cur, rule, (), PAPER7, ctx)
        steps.append(step)
    return v, Derivation(v, tuple(steps), level(w))


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


def ref_random_path(ctx, rng, depth):
    src = Object(0, rng.choice(list(ctx.elements)))
    return ref_random_path_from(src, ctx, rng, depth)


def ref_random_path_from(end, ctx, rng, depth, forward=True):
    ahead = [n for n, d in ctx.atoms.items() if Object(0, d.source if forward else d.target) == end]
    behind = [n for n, d in ctx.atoms.items() if Object(0, d.target if forward else d.source) == end]
    choices = ["refl"]
    if ahead:
        choices.append("atom")
    if depth > 0:
        choices.extend(["trans", "trans"])
        if behind or depth > 1:
            choices.append("sym")
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(ahead))
    if kind == "sym":
        if behind and (depth <= 1 or rng.random() < 0.5):
            return Sym(Atom(rng.choice(behind)))
        return Sym(ref_random_path_from(end, ctx, rng, depth - 1, not forward))
    if kind == "trans":
        near = ref_random_path_from(end, ctx, rng, depth - 1, forward)
        mid = endpoints(near, ctx)[1 if forward else 0]
        far = ref_random_path_from(mid, ctx, rng, depth - 1, forward)
        return Trans(near, far) if forward else Trans(far, near)
    return Refl(end)


@pytest.fixture
def run_laws_rngs(monkeypatch):
    """The ``random.Random`` instances ``run_laws`` makes, in order."""
    made = []

    def make(seed):
        made.append(random.Random(seed))
        return made[-1]

    monkeypatch.setattr(groupoid, "random", SimpleNamespace(Random=make))
    return made


def same(a, b, proven=None) -> bool:
    """``a == b`` for dataclass values, in time linear in their shared structure.

    ``==`` re-walks a subterm once per path to it, and a level-k term holds
    the terms below it in its objects and recorded steps, so on two
    separately built level-6 reports it takes about 5^6 times the work. This
    walk compares each pair of nodes once, as ``==`` does, on the fields
    ``==`` compares.
    """
    if a is b:
        return True
    proven = set() if proven is None else proven
    if type(a) is not type(b):
        return False
    if (id(a), id(b)) in proven:
        return True
    if dataclasses.is_dataclass(a):
        pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.compare]
    elif type(a) in (tuple, list):
        pairs = list(zip(a, b)) if len(a) == len(b) else None
    else:
        return a == b
    if pairs is None or not all(same(x, y, proven) for x, y in pairs):
        return False
    proven.add((id(a), id(b)))  # both stay alive inside the values compared
    return True


def test_run_laws_agrees_with_reference_draw_for_draw(ctx_rs, run_laws_rngs):
    """Equal reports and equal RNG state after, at levels 1-6, over 40 seeds on three contexts."""
    for ctx in (ctx_rs, TRIANGLE, TRIANGLE_LAM):
        for lv in range(1, 7):
            for seed in range(40):
                samples = 1 + seed % 4
                ref_rng = random.Random(seed)
                got = run_laws(ctx, lv, samples, seed)
                want = ref_run_laws(ctx, lv, samples, seed, ref_rng)
                assert same(got, want), (lv, seed)
                if lv <= 3:  # ``==`` itself, where it is cheap
                    assert got == want, (lv, seed)
                assert run_laws_rngs.pop().getstate() == ref_rng.getstate(), (lv, seed)
                assert not got.failures


def test_same_is_equality():
    a, b = Atom("r"), Atom("s")
    assert same(Trans(a, b), Trans(Atom("r"), Atom("s")))
    assert not same(Trans(a, b), Trans(b, a))
    assert not same(Trans(a, b), Sym(Trans(a, b)))
    assert not same((a, b), (a,))
    assert same(Refl(Object(1, Trans(a, b))), Refl(Object(1, Trans(a, b))))
    assert not same(Refl(Object(1, a)), Refl(Object(2, a)))


def test_wrap_agrees_with_reference_draw_for_draw(ctx_rs):
    """Same terms, same rules, same RNG state after, over 3,000 seeds; the sampled endpoints are the term's."""
    kinds = set()
    for seed in range(3000):
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            t, src, tgt = _random_path(ctx_rs, rng, depth=rng.randint(0, 3))
        else:
            t, src, tgt = _random_term_at_level(ctx_rs, kind + 1, rng)
        assert (src, tgt) == endpoints(t, ctx_rs), seed
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        wrapped, layers = _wrap(t, src, tgt, rng)
        assert (wrapped, [rule for rule, _, _ in layers]) == ref_wrap(t, ctx_rs, ref_rng), seed
        assert rng.getstate() == ref_rng.getstate(), seed
        chain = [t] + [outer for _, _, outer in layers]  # each layer wraps the one before
        assert [inner for _, inner, _ in layers] == chain[:-1] and chain[-1] is wrapped, seed
        kinds.add((kind, len(layers)))
    assert {(k, n) for k in (0, 1, 2) for n in (0, 1, 2)} <= kinds


def test_sampled_triples_are_composable_with_the_endpoints_carried(ctx_rs):
    for lv in range(1, 5):
        for seed in range(50):
            s, r, t, src, tgt = _composable_triple(ctx_rs, lv, random.Random(seed))
            assert endpoints(s, ctx_rs) == (src, tgt)
            assert endpoints(compose(compose(s, r, ctx_rs), t, ctx_rs), ctx_rs)[0] == src


def test_sampler_reads_endpoints_only_in_tr_and_tsr_templates(monkeypatch):
    """The sampler and law instances read no endpoints of their own.

    The only reads are of the ``r`` of a tr or tsr right-hand side: once per
    such random contraction in its schema's ``build``, and once each when the
    left- and right-inverse witnesses replay. A declared atom's ends are its
    declaration's, read without an ``endpoints`` call; any other ``r`` makes
    one call.
    """
    calls = {"groupoid": 0, "engine": 0, "rules": 0}

    def counting(name):
        def count(t, ctx):
            calls[name] += 1
            return endpoints(t, ctx)

        return count

    for name, module in (("groupoid", groupoid), ("engine", engine), ("rules", rules)):
        monkeypatch.setattr(module, "endpoints", counting(name))
    contracted = []  # the r of each tr or tsr right-hand side the sampler builds
    walk = groupoid.redexes

    def spied(schema):  # the schema as the sampler reads it, its build noting each r whose ends it reads
        def build(binding, ctx):
            if type(schema.rhs) in (RReflAtSource, RReflAtTarget):
                contracted.append(binding[schema.rhs.var])
            return schema.build(binding, ctx)

        return SimpleNamespace(name=schema.name, build=build)

    monkeypatch.setattr(groupoid, "redexes", lambda rs, t: [(spied(s), b, pos) for s, b, pos in walk(rs, t)])
    seen_contracted = atoms_read = 0
    for lv in range(1, 7):
        for key in calls:
            calls[key] = 0
        contracted.clear()
        report = run_laws(TRIANGLE, lv, 20, lv)
        assert not report.failures
        inverted = [r.inputs[0] for r in report.reports if r.law in ("left-inverse", "right-inverse")]
        ends_read = contracted + inverted
        atoms = sum(type(r) is Atom for r in ends_read)
        assert len(inverted) == 2 * 20 and (lv == 1 or atoms == 0)  # above level 1 every r is a lifted path
        assert calls == {"groupoid": 0, "engine": 0, "rules": len(ends_read) - atoms}, lv
        seen_contracted += len(contracted)
        atoms_read += atoms
    assert seen_contracted and atoms_read  # some random step contracted a tr or tsr redex; some r was an atom


def test_lifting_builds_no_derivation_and_flips_no_step(monkeypatch):
    """Counted work of the sampler: each lifted path is composed from its draws.

    No recorded step is flipped, and the only derivations built are the five
    law witnesses per sample.
    """
    flips, built = [], []
    flipped, post_init = engine.RewriteStep.flipped, engine.Derivation.__post_init__
    monkeypatch.setattr(engine.RewriteStep, "flipped", lambda self: flips.append(self) or flipped(self))
    monkeypatch.setattr(engine.Derivation, "__post_init__", lambda self: built.append(self) or post_init(self))
    for lv in range(2, 7):
        flips.clear()
        built.clear()
        report = run_laws(TRIANGLE, lv, 20, lv)
        assert not report.failures
        assert (len(flips), len(built)) == (0, 5 * 20), lv
        assert all(b is r.witness for b, r in zip(built, report.reports))


def test_check_assoc_walks_each_input_once(ctx_rs, monkeypatch):
    """Three ``endpoints`` calls, and the nested ``compose``'s error at either break."""
    seen = []
    monkeypatch.setattr(groupoid, "endpoints", lambda t, ctx: seen.append(t) or endpoints(t, ctx))
    r, s, rho_b = Atom("r"), Atom("s"), Refl(el("b"))
    assert check_assoc(r, rho_b, s, 1, ctx_rs).verified
    assert seen == [r, rho_b, s]
    for triple, left, right, walked in (((r, r, s), "b", "a", 2), ((r, s, r), "c", "a", 3)):
        seen.clear()
        with pytest.raises(EndpointMismatch) as caught:
            check_assoc(*triple, 1, ctx_rs)
        assert str(caught.value) == (
            f"endpoint mismatch at position root: {el(left)} != {el(right)}"
        )
        assert seen == list(triple[:walked])
        with pytest.raises(EndpointMismatch) as ref:
            ref_compose(ref_compose(triple[0], triple[1], ctx_rs), triple[2], ctx_rs)
        assert str(caught.value) == str(ref.value) and caught.value.position == ref.value.position == ()


def test_law_checks_reject_an_ill_chained_term_at_the_root(ctx_rs):
    ill = Trans(Atom("r"), Atom("r"))
    for check, ref_check in (
        (lambda: check_units(ill, 1, ctx_rs), lambda: ref_check_units(ill, 1, ctx_rs)),
        (lambda: check_inverses(ill, 1, ctx_rs), lambda: ref_check_inverses(ill, 1, ctx_rs)),
        (lambda: check_assoc(ill, ill, ill, 1, ctx_rs), lambda: ref_check_assoc(ill, ill, ill, 1, ctx_rs)),
    ):
        with pytest.raises(EndpointMismatch) as caught:
            check()
        with pytest.raises(EndpointMismatch) as ref:
            ref_check()
        assert caught.value.position == () and str(caught.value) == str(ref.value)


def test_run_laws_climbs_two_thousand_levels(ctx_rs):
    report = run_laws(ctx_rs, 2000, 2, 0)
    assert len(report.reports) == 10 and not report.failures
    assert all(step.rule.endswith("2000") for r in report.reports for step in r.witness.steps)


def test_run_laws_at_level_two_thousand_names_steps_of_the_level_one_schemas(ctx_rs):
    report = run_laws(ctx_rs, 2000, 1, 0)
    assert [r.witness.steps[0].rule for r in report.reports] == ["tt2000", "tlr2000", "trr2000", "tr2000", "tsr2000"]
    assert PAPER7.find("tt", 2000) is rules.TT
    assert rules.step_name("tt", 2000) == "tt2000"


def test_run_laws_needs_an_element_to_sample(ctx_rs):
    bare = Context(("A",))
    for lv in (1, 3):
        with pytest.raises(PathRwError, match="no elements to sample paths from"):
            run_laws(bare, lv, 1, 0)
        assert run_laws(bare, lv, 0, 0).reports == ()


# --- what the tower identifies (ROADMAP item 19) ------------------------------


def _lifted(start, moves, ctx):
    """Contract ``moves`` (rule, position) in turn from ``start``; the end and the lifted derivation."""
    steps, cur = [], start
    for rule, pos in moves:
        cur, step = contract_once(cur, rule, pos, PAPER7, ctx)
        steps.append(step)
    d = Derivation(start, tuple(steps), 1)
    assert replay_derivation(d, PAPER7, ctx)
    return cur, derivation_to_path(d)


@pytest.mark.parametrize(
    "start, first, second",
    [
        (
            Trans(Sym(Sym(Atom("r"))), Sym(Sym(Atom("s")))),
            [("ss", (0,)), ("ss", (1,))],
            [("ss", (1,)), ("ss", (0,))],
        ),
        (
            Trans(Trans(Trans(Atom("p"), Atom("q")), Atom("t")), Atom("w")),
            [("tt", ()), ("tt", ())],
            [("tt", (0,)), ("tt", ()), ("tt", (1,))],
        ),
        (
            Trans(Trans(Refl(Object(0, "a")), Atom("r")), Refl(Object(0, "b"))),
            [("tlr", (0,)), ("trr", ())],
            [("trr", ()), ("tlr", ())],
        ),
    ],
    ids=["interchange", "pentagon", "levy"],
)
def test_two_derivations_to_one_end_lift_to_unequal_paths(start, first, second):
    """Interchange, the pentagon and a Lévy permutation of ``tlr`` and ``trr`` fail one level up:
    rw-equality at each level is the free groupoid on that level's generators, here the recorded
    steps, so two lifts are equal only if their reduced words are."""
    ctx = Context(
        ("A",),
        {name: "A" for name in "abcde"},
        {},
        {
            "r": AtomDecl("a", "b", "A"),
            "s": AtomDecl("b", "c", "A"),
            "p": AtomDecl("a", "b", "A"),
            "q": AtomDecl("b", "c", "A"),
            "t": AtomDecl("c", "d", "A"),
            "w": AtomDecl("d", "e", "A"),
        },
    )
    end, lift1 = _lifted(start, first, ctx)
    end2, lift2 = _lifted(start, second, ctx)
    assert end == end2 and lift1 != lift2
    for rs in (PAPER7, GROUPOID_COMPLETE):
        assert decide_rw_equal(lift1, lift2, rs, ctx) == NotEqual("reduced words differ")
    assert oracle_equal(lift1, lift2, ctx) is False


@pytest.mark.parametrize("rs", [PAPER7, GROUPOID_COMPLETE], ids=lambda rs: rs.name)
def test_lifting_is_functorial_on_sampled_traces(rs):
    """Lifting sends a composite to the composition, an inverse to the inverse and the empty derivation to the unit."""
    rng = random.Random(19)
    terms = rng.sample(list(enumerate_terms(TRIANGLE, 7)), 300)
    for t in terms:
        _, d = normalize(t, rs, TRIANGLE)
        k = rng.randint(0, len(d.steps))
        d1 = Derivation(d.start, d.steps[:k], 1)
        d2 = Derivation(d1.end, d.steps[k:], 1)
        lift1, lift2 = derivation_to_path(d1), derivation_to_path(d2)
        verdict = decide_rw_equal(derivation_to_path(concat_derivations(d1, d2)), Trans(lift1, lift2), rs, TRIANGLE)
        assert type(verdict) is Equal and replay_derivation(verdict.witness, rs, TRIANGLE), t
        verdict = decide_rw_equal(derivation_to_path(invert_derivation(d)), Sym(derivation_to_path(d)), rs, TRIANGLE)
        assert type(verdict) is Equal, t
        assert derivation_to_path(Derivation(t, (), 1)) == Refl(Object(1, t))
