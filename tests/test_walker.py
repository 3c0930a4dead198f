"""The incremental rewrite walker and the compiled matchers against references.

The walker reference finds each redex by scanning the whole term from the
root again, in strategy order, exactly as the normalizer did before it
walked the term once, matching with the pattern interpreter below. It
expands an extension contraction with the hand-written seven-rule step
sequences below, where the engine instantiates the witness its schema
carries. Every recorded step must agree with it, and every compiled matcher
must bind exactly what the interpreter binds.
"""

from __future__ import annotations

import collections
import gc

import pytest

from pathrw import engine
from pathrw.engine import (
    FORWARD,
    REVERSE,
    RewriteStep,
    canonical_derivation,
    contract_once,
    decide_rw_equal,
    derivation_to_path,
    invert_derivation,
    normalize,
    replay_derivation,
)
from pathrw.errors import EndpointMismatch, UnknownAtom, UnknownElement
from pathrw.groupoid import run_laws
from pathrw.oracle import check_confluence, enumerate_terms
from pathrw.rules import (
    GROUPOID_COMPLETE,
    PAPER7,
    PRefl,
    PSym,
    PTrans,
    PVar,
    STRATEGIES,
    step_name,
)
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
    endpoints,
    level,
    replace_at,
    subterm_at,
)

from conftest import TRIANGLE
from test_kernel import ref_build_template, ref_path_children, subterms

TERMS = list(enumerate_terms(TRIANGLE, 8))


def match_pattern(pattern, t, binding=None):
    """Match ``pattern`` against ``t`` by walking both; the binding or None."""
    if binding is None:
        binding = {}
    match pattern:
        case PVar(name):
            seen = binding.get(name)
            if seen is None:
                binding[name] = t
                return binding
            return binding if seen == t else None
        case PRefl(obj_var):
            if not isinstance(t, Refl):
                return None
            seen = binding.get(obj_var)
            if seen is None:
                binding[obj_var] = t.obj
                return binding
            return binding if seen == t.obj else None
        case PSym(body):
            if not isinstance(t, Sym):
                return None
            return match_pattern(body, t.body, binding)
        case PTrans(left, right):
            if not isinstance(t, Trans):
                return None
            inner = match_pattern(left, t.left, binding)
            if inner is None:
                return None
            return match_pattern(right, t.right, inner)
    raise TypeError(f"not a pattern: {pattern!r}")


def _suffixed(name, lv):
    return name if lv == 1 else f"{name}{lv}"


def _simulate_extension(cur, schema, pos, ctx):
    """Expand one extension contraction into seven-rule forward/reverse steps."""
    lv = level(cur)
    steps = []

    def emit(rule, at, direction, after):
        nonlocal cur
        steps.append(RewriteStep(_suffixed(rule, lv), at, direction, cur, after, lv))
        cur = after
        return cur

    sub = subterm_at(cur, pos)
    if schema.name == "st":
        # sigma(tau(r, s))  ~>  tau(sigma(s), sigma(r))
        r, s = sub.body.left, sub.body.right
        x = endpoints(r, ctx)[0]
        y = endpoints(s, ctx)[0]
        z = endpoints(s, ctx)[1]
        emit("tlr", pos, REVERSE, replace_at(cur, pos, Trans(Refl(z), sub)))
        emit("tsr", pos + (0,), REVERSE, replace_at(cur, pos + (0,), Trans(Sym(s), s)))
        emit("tt", pos, FORWARD, replace_at(cur, pos, Trans(Sym(s), Trans(s, sub))))
        emit(
            "tlr",
            pos + (1,),
            REVERSE,
            replace_at(cur, pos + (1,), Trans(Refl(y), Trans(s, sub))),
        )
        emit("tsr", pos + (1, 0), REVERSE, replace_at(cur, pos + (1, 0), Trans(Sym(r), r)))
        emit(
            "tt",
            pos + (1,),
            FORWARD,
            replace_at(cur, pos + (1,), Trans(Sym(r), Trans(r, Trans(s, sub)))),
        )
        emit(
            "tt",
            pos + (1, 1),
            REVERSE,
            replace_at(cur, pos + (1, 1), Trans(Trans(r, s), sub)),
        )
        emit("tr", pos + (1, 1), FORWARD, replace_at(cur, pos + (1, 1), Refl(x)))
        emit("trr", pos + (1,), FORWARD, replace_at(cur, pos + (1,), Sym(r)))
        return steps
    if schema.name == "trc":
        # tau(r, tau(sigma(r), t))  ~>  t
        r = sub.left
        t2 = sub.right.right
        x = endpoints(r, ctx)[0]
        emit("tt", pos, REVERSE, replace_at(cur, pos, Trans(Trans(r, Sym(r)), t2)))
        emit("tr", pos + (0,), FORWARD, replace_at(cur, pos + (0,), Refl(x)))
        emit("tlr", pos, FORWARD, replace_at(cur, pos, t2))
        return steps
    if schema.name == "tsrc":
        # tau(sigma(r), tau(r, t))  ~>  t
        r = sub.right.left
        t2 = sub.right.right
        y = endpoints(r, ctx)[1]
        emit("tt", pos, REVERSE, replace_at(cur, pos, Trans(Trans(Sym(r), r), t2)))
        emit("tsr", pos + (0,), FORWARD, replace_at(cur, pos + (0,), Refl(y)))
        emit("tlr", pos, FORWARD, replace_at(cur, pos, t2))
        return steps
    raise AssertionError(f"no simulation for extension rule '{schema.name}'")


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
        for i, child in enumerate(ref_path_children(node)):
            if found := first(child):
                return found[0], found[1], (i,) + found[2]
        return here(node) if innermost else None

    trace, cur = [], t
    while found := first(cur):
        schema, binding, pos = found
        after = replace_at(cur, pos, ref_build_template(schema.rhs, binding, ctx))
        if schema.witness and schema.name not in available:
            simulated = _simulate_extension(cur, schema, pos, ctx)
            assert simulated[-1].after == after
            trace += [(s.rule, s.position, s.direction, s.after) for s in simulated]
        else:
            trace.append((_suffixed(schema.name, level(t)), pos, FORWARD, after))
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
        assert len(invert_derivation(canonical_derivation(t, PAPER7, TRIANGLE)).steps) > 0  # built on this read
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_jobs_leave_no_reference_cycles():
    """With the collector off, each call below leaves ``gc.collect() == 0``.

    So ``terms.gc_paused``, which pauses the collector for ``run_laws``,
    ``check_confluence``, ``replay_document`` and ``cli.main``, frees no less:
    reference counting frees all they build. The document's context has an
    ``alpha``-tagged atom, so its replay runs ``lam.alpha_eq``. ``cli.main`` is
    the one exception, and is not called here: the first command builds the
    (cached) argparse parser, which leaves 91 objects in cycles, and
    ``json.dumps(indent=2)`` leaves 33 per document written. The collector
    frees them after the command returns.
    """
    script = parse_script(
        "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"
        "path q := tau(al, sigma(al))\n"
    )
    q = script.paths["q"]
    d = normalize(q, PAPER7, script.context)[1]
    doc = derivation_to_doc(d, script.context, PAPER7.name)
    t = _deep_term(3)
    calls = {
        "decide_rw_equal": lambda: decide_rw_equal(t, Trans(t, Refl(Object(0, "b"))), PAPER7, TRIANGLE),
        "replay_derivation": lambda: replay_derivation(d, PAPER7, script.context),
        "run_laws": lambda: run_laws(TRIANGLE, 3, 5, 1),
        "check_confluence": lambda: check_confluence(PAPER7, TRIANGLE, 5),
        "replay_document": lambda: replay_document(doc),
    }
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(calls, 0)


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


def test_walker_and_replay_work_grows_linearly_on_a_long_chain(ctx_r, monkeypatch):
    """Counted, not timed, on ``tau(...tau(r, rho(b))..., rho(b))`` of n links.

    At n = 1,000 and 2,000, innermost ``normalize`` calls ``contract`` 2n + 1
    times and outermost n + 1 times, and replay calls ``_legal`` once per step,
    n times. Doubling n may at most 2.1-fold each count, and a second run
    counts the same.
    """
    counts = collections.Counter()
    real_contract, real_legal = PAPER7.contract, engine._legal

    def contract(*args):
        counts["contract"] += 1
        return real_contract(*args)

    def legal(*args):
        counts["legal"] += 1
        return real_legal(*args)

    def count(n):
        t = Atom("r")
        for _ in range(n):
            t = Trans(t, Refl(Object(0, "b")))
        got = {}
        for strategy in STRATEGIES:
            counts.clear()
            _, d = normalize(t, PAPER7, ctx_r, strategy)
            got[strategy, "contract"] = counts["contract"]
            counts.clear()
            assert replay_derivation(d, PAPER7, ctx_r)
            got[strategy, "_legal"] = counts["legal"]
        return got

    monkeypatch.setattr(engine, "_legal", legal)
    object.__setattr__(PAPER7, "contract", contract)  # a frozen dataclass, which monkeypatch cannot set
    try:
        small, large = count(1000), count(2000)
        assert count(1000) == small and count(2000) == large
    finally:
        object.__setattr__(PAPER7, "contract", real_contract)
    for key, n in small.items():
        assert n >= 1000 and large[key] <= 2.1 * n, (key, n, large[key])


def test_canonical_derivation_and_replay_work_grows_linearly_on_a_trc_chain(monkeypatch):
    """Counted, not timed, on ``tau(r, tau(sigma(r), ...u))`` of n links, with ``u : a = a``.

    The walk fires ``trc`` at every link, and ``PAPER7`` lacks it, so
    ``_expand`` writes out its seven-rule witness each time. At n = 1,000 and
    2,000, ``canonical_derivation`` calls ``GROUPOID_COMPLETE.contract`` 5n + 1
    times and ``_expand`` n times, and replay calls ``_legal`` 3n times.
    Doubling n may at most 2.1-fold each count, and a second run counts the
    same.
    """
    ctx = Context(("A",), {"a": "A", "b": "A"}, {}, {"r": AtomDecl("a", "b", "A"), "u": AtomDecl("a", "a", "A")})
    counts = collections.Counter()
    real_contract, real_expand, real_legal = GROUPOID_COMPLETE.contract, engine._expand, engine._legal

    def counted(key, real):
        def call(*args):
            counts[key] += 1
            return real(*args)

        return call

    def count(n):
        t = Atom("u")
        for _ in range(n):
            t = Trans(Atom("r"), Trans(Sym(Atom("r")), t))
        counts.clear()
        d = canonical_derivation(t, PAPER7, ctx)
        got = {"contract": counts["contract"], "_expand": counts["_expand"]}
        counts.clear()
        assert replay_derivation(d, PAPER7, ctx)
        assert d.end == Atom("u")
        return {**got, "_legal": counts["_legal"]}

    monkeypatch.setattr(engine, "_expand", counted("_expand", real_expand))
    monkeypatch.setattr(engine, "_legal", counted("_legal", real_legal))
    object.__setattr__(GROUPOID_COMPLETE, "contract", counted("contract", real_contract))  # a frozen dataclass
    try:
        small, large = count(1000), count(2000)
        assert count(1000) == small and count(2000) == large
    finally:
        object.__setattr__(GROUPOID_COMPLETE, "contract", real_contract)
    for key, n in small.items():
        assert n >= 1000 and large[key] <= 2.1 * n, (key, n, large[key])


def _substitute(t, atoms, objects):
    """``t`` rebuilt node by node, its atoms and reflexivity objects mapped."""
    match t:
        case Atom(name):
            return atoms[name]
        case Refl(Object(_, name)):
            return Refl(objects[name])
        case Sym(body):
            return Sym(_substitute(body, atoms, objects))
        case Trans(left, right):
            return Trans(_substitute(left, atoms, objects), _substitute(right, atoms, objects))
    raise AssertionError(t)


def _agree(terms, lv=1):
    """Every schema's compiled matcher binds what the interpreter binds."""
    hits = dict.fromkeys((s.name for s in GROUPOID_COMPLETE.schemas), 0)
    for schema in GROUPOID_COMPLETE.schemas:
        compiled = GROUPOID_COMPLETE.find(step_name(schema.name, lv), lv)
        assert compiled is schema
        for t in terms:
            expected = match_pattern(schema.lhs, t)
            assert compiled.match(t) == expected, (schema.name, t)
            hits[schema.name] += expected is not None
    return hits


def test_matchers_agree_with_interpreter_on_sweep_subterms():
    nodes = {node for t in TERMS for node in subterms(t)}
    hits = _agree(nodes)
    assert all(hits.values()), hits


SAME = ({name: Atom(name) for name in "rsu"}, {name: Object(0, name) for name in "abc"})
ROTATED = (
    {"r": Atom("s"), "s": Atom("u"), "u": Atom("r")},
    {"a": Object(0, "b"), "b": Object(0, "c"), "c": Object(0, "a")},
)
SMALL = [t for t in TERMS if len(list(subterms(t))) <= 5]


def _level_2_leaves():
    """Step atoms and level-2 objects taken from recorded contractions."""
    steps = []
    for t in TERMS:
        steps += normalize(t, PAPER7, TRIANGLE)[1].steps
        if len(steps) >= 3:
            break
    atoms = dict(zip("rsu", map(StepAtom, steps)))
    objects = {name: Object(1, step.before) for name, step in zip("abc", steps)}
    return atoms, objects


def test_matchers_agree_with_interpreter_on_level_2_terms():
    atoms, objects = _level_2_leaves()
    lifted = [_substitute(t, atoms, objects) for t in SMALL]
    for t in TERMS[::50]:
        d = normalize(t, GROUPOID_COMPLETE, TRIANGLE)[1]
        if d.steps:
            p = derivation_to_path(d)
            lifted += [Trans(p, Sym(p)), Sym(Sym(p)), Sym(Trans(p, p)), Trans(p, Trans(Sym(p), p))]
            lifted += [Trans(Sym(p), Trans(p, p))]
    terms = [node for t in lifted for node in subterms(t)]
    assert {level(t) for t in terms} == {2}
    hits = _agree(terms, lv=2)
    assert all(hits.values()), hits


def test_nonlinear_matchers_compare_with_equality():
    """tr/tsr (and trc/tsrc) need their two r's equal, not identical or alike."""
    tr, tsr = PAPER7.find("tr", 1), PAPER7.find("tsr", 1)
    tail = Atom("s")
    candidates = []
    for t in SMALL:
        twin = _substitute(t, *SAME)
        other = _substitute(t, *ROTATED)
        assert twin == t and twin is not t and other != t
        assert tr.match(Trans(t, Sym(twin))) == {"r": t}
        assert tsr.match(Trans(Sym(t), twin)) == {"r": t}
        assert tr.match(Trans(t, Sym(other))) is None
        assert tsr.match(Trans(Sym(t), other)) is None
        for r in (twin, other):
            candidates += [
                Trans(t, Sym(r)),
                Trans(Sym(t), r),
                Trans(t, Trans(Sym(r), tail)),
                Trans(Sym(t), Trans(r, tail)),
            ]
    hits = _agree(candidates)
    assert all(hits[name] for name in ("tr", "tsr", "trc", "tsrc")), hits


def test_generated_contract_agrees_with_match_and_build():
    """A rule set's ``contract``, and each schema's ``contract`` and ``build``, build what ``match`` and the reference build."""
    nodes = {node for t in TERMS for node in subterms(t)}
    contracted = 0
    for rs in (PAPER7, GROUPOID_COMPLETE):
        for node in nodes:
            expected = None
            for schema in rs.schemas:
                binding = schema.match(node)
                built = binding and ref_build_template(schema.rhs, binding, TRIANGLE)
                assert schema.contract(node, TRIANGLE) == built, (schema.name, node)
                assert binding is None or schema.build(binding, TRIANGLE) == built, (schema.name, node)
                if expected is None and binding is not None:
                    expected = schema, built
            assert rs.contract(node, TRIANGLE) == expected, node
            contracted += expected is not None
    assert contracted > len(nodes)


def test_bindings_are_fresh_per_call():
    """A caller may mutate a binding it got (``check_confluence`` does); the next call is unchanged."""
    t = Trans(Trans(Atom("r"), Atom("s")), Refl(Object(0, "c")))
    tt = {"t": Atom("r"), "r": Atom("s"), "s": Refl(Object(0, "c"))}
    trr = {"r": Trans(Atom("r"), Atom("s")), "x": Object(0, "c")}
    for rs in (PAPER7, GROUPOID_COMPLETE):
        for _ in range(2):
            found = rs.matches(t)
            assert [(schema.name, binding) for schema, binding in found] == [("trr", trr), ("tt", tt)]
            for _, binding in found:
                binding.clear()
                binding["r"] = Atom("u")
            binding = rs.find("tt", 1).match(t)
            assert binding == tt
            binding.pop("s")


class _Probe:
    """A stand-in metavariable value that records each ``==`` asked of it and answers ``verdict``."""

    def __init__(self, name, calls, verdict):
        self.name, self.calls, self.verdict = name, calls, verdict

    def __eq__(self, other):
        self.calls.append((self.name, getattr(other, "name", type(other).__name__)))
        return self.verdict

    __hash__ = None


def test_nonlinear_check_is_equality_with_the_first_occurrence_on_the_left():
    tail = Atom("s")
    for verdict in (True, False):
        calls = []
        first, later = _Probe("first", calls, verdict), _Probe("later", calls, verdict)
        for rule, t in (
            ("tr", Trans(first, Sym(later))),
            ("tsr", Trans(Sym(first), later)),
            ("trc", Trans(first, Trans(Sym(later), tail))),
            ("tsrc", Trans(Sym(first), Trans(later, tail))),
        ):
            schema = GROUPOID_COMPLETE.find(rule, 1)
            calls.clear()
            binding = schema.match(t)
            assert calls == [("first", "later")]
            assert binding is None if not verdict else binding["r"] is first
            calls.clear()
            found = [(s.name, b) for s, b in GROUPOID_COMPLETE.matches(t)]
            assert ("first", "later") in calls and all(left == "first" for left, _ in calls)
            assert (rule in dict(found)) is verdict
            if verdict:
                assert dict(found)[rule]["r"] is first
            else:
                calls.clear()
                assert schema.contract(t, TRIANGLE) is None and calls == [("first", "later")]
    twin, other = Trans(Atom("r"), Atom("s")), Trans(Atom("r"), Atom("s"))
    assert twin is not other
    for rs in (PAPER7, GROUPOID_COMPLETE):
        assert rs.contract(Trans(twin, Sym(other)), TRIANGLE) == (rs.find("tr", 1), Refl(Object(0, "a")))
        assert rs.contract(Trans(Sym(twin), other), TRIANGLE) == (rs.find("tsr", 1), Refl(Object(0, "c")))
        assert rs.matches(Trans(twin, Sym(other)))[0][1]["r"] is twin


# Per ill-formed r: the error that contracting a tr or tsr redex over it
# raises, with its text and position, as recorded before the matchers were
# generated.
R, S = Atom("r"), Atom("s")
ILL_FORMED_R = {
    "r.r": (Trans(R, R), EndpointMismatch, "endpoint mismatch at position root: {b} != {a}", ()),
    "zap": (Atom("zap"), UnknownAtom, "unknown atom 'zap' at position root", ()),
    "s.(r.s-)": (Trans(S, Trans(R, Sym(S))), EndpointMismatch, "endpoint mismatch at position 1: {b} != {c}", (1,)),
    "rho(q)": (Refl(Object(0, "q")), UnknownElement, "unknown element 'q' at position root", ()),
    "(r.(s.s))-": (Sym(Trans(R, Trans(S, S))), EndpointMismatch, "endpoint mismatch at position 0.1: {c} != {b}", (0, 1)),
}


@pytest.mark.parametrize("bad, error, text, position", ILL_FORMED_R.values(), ids=ILL_FORMED_R)
def test_contracting_over_an_ill_formed_r_raises_as_before(bad, error, text, position):
    objects = {x: repr(Object(0, x)) for x in "abc"}
    for rs in (PAPER7, GROUPOID_COMPLETE):
        for rule, redex in (("tr", Trans(bad, Sym(bad))), ("tsr", Trans(Sym(bad), bad))):
            for pos, t in (((), redex), ((0, 1), Sym(Trans(R, redex)))):
                with pytest.raises(error) as exc:
                    contract_once(t, rule, pos, rs, TRIANGLE)
                assert type(exc.value) is error
                assert str(exc.value) == text.format(**objects) and exc.value.position == position
