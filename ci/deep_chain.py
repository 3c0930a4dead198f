"""Deep input at the default recursion limit: chains, nests and formers thousands deep, and tower terms.

Run from the repository root with ``PYTHONPATH=src python3 ci/deep_chain.py`` (the
workflow installs the package and runs it under ``timeout 20``). Each check prints one
line when it holds; the first that fails raises and exits non-zero.
"""

import random

from pathrw import GROUPOID_COMPLETE, PAPER7, Atom, AtomDecl, Context, Derivation, Mu, Object, Refl, Sym, Trans, Xi
from pathrw import canonical_derivation, contract_once, endpoints, mu_measure, normalize, replay_derivation, validate
from pathrw.errors import EndpointMismatch, NoRedex, PositionedError
from pathrw.groupoid import _composable_triple
from pathrw.lam import Abs, Var
from pathrw.rules import contractions
from pathrw.terms import size, subterm_at

ctx = Context(("A",), {"a": "A", "b": "A"}, {}, {"r": AtomDecl("a", "b", "A")})
t = Atom("r")
for _ in range(4000):
    t = Trans(t, Refl(Object(0, "b")))
nf, d = normalize(t, PAPER7, ctx)
assert nf == Atom("r"), nf
assert replay_derivation(canonical_derivation(t, PAPER7, ctx), PAPER7, ctx)
print("deep chain: 4000 links normalized, canonical derivation replayed")
nf, d = normalize(t, PAPER7, ctx, "leftmost-outermost")
assert nf == Atom("r") and len(d.steps) == 4000, nf
assert replay_derivation(d, PAPER7, ctx)
assert replay_derivation(Derivation(d.start, d.steps, d.level), PAPER7, ctx)
print("deep chain: 4000 links normalized leftmost-outermost, replayed, and its full-step copy replayed")
bad = Trans(Atom("r"), Refl(Object(0, "a")))
for _ in range(3999):
    bad = Trans(bad, Refl(Object(0, "b")))
try:
    endpoints(bad, ctx)
    raise AssertionError("endpoints accepted a chain with a bad link")
except EndpointMismatch as exc:
    assert exc.position == (0,) * 3999, len(exc.position)
assert [(v.kind, v.position) for v in validate(bad, ctx).violations] == [("endpoint-mismatch", (0,) * 3999)]
print("deep chain: a bad link at the bottom of 4000 located by endpoints and validate")
for strategy in ("leftmost-innermost", "leftmost-outermost"):
    nf, fired = contractions(t, PAPER7, ctx, strategy)
    _, d = normalize(t, PAPER7, ctx, strategy)
    # d._edits counts the steps unbuilt: building the innermost ones rebuilds a spine up to 4,000 deep per step, about 16 s on a 2-core x86-64 machine
    assert nf == Atom("r") and len(fired) == len(d._edits) == 4000, strategy
print("deep chain: 4000 links walked by contractions both ways, one contraction per normalize step")
assert size(t) == 8001 and mu_measure(t) == (8001, 16000000), (size(t), mu_measure(t))
print("deep chain: 4000 links counted by size and mu_measure in one walk")
below = (0,) * 4001
try:
    subterm_at(t, below)
    raise AssertionError("subterm_at found a subterm below the leftmost leaf")
except PositionedError as exc:
    assert exc.position == below and str(exc) == "no subterm at position " + ".".join("0" * 4001), str(exc)[:40]
print("deep chain: no subterm 4001 deep, the error at that position")
try:
    contract_once(t, "ss", (0,) * 3999, PAPER7, ctx)
    raise AssertionError("ss contracted a composition")
except NoRedex as exc:
    assert exc.position == (0,) * 3999, len(exc.position)
print("deep chain: no ss redex 3999 deep, the error at that position")
s = Atom("r")
for _ in range(2000):
    s = Sym(s)
nf, d = normalize(s, GROUPOID_COMPLETE, ctx)
assert nf == Atom("r") and len(d.steps) == 1000, nf
assert replay_derivation(d, GROUPOID_COMPLETE, ctx)
assert replay_derivation(Derivation(d.start, d.steps, d.level), GROUPOID_COMPLETE, ctx)
print("deep nest: 2000 sigmas normalized under groupoid-complete, replayed, and its full-step copy replayed")
lam = Context(("F",), {"m": "F", "n": "F"}, {"m": Abs("x", Var("x")), "n": Abs("y", Var("y"))}, {"al": AtomDecl("m", "n", "F")})
x = Sym(Sym(Atom("al")))
for i in range(2000):
    x = Xi("v", x) if i % 2 else Mu("m", x)
for strategy in ("leftmost-innermost", "leftmost-outermost"):
    nf, d = normalize(x, PAPER7, lam, strategy)
    assert len(d.steps) == 1 and size(nf) == 2001 and subterm_at(nf, (0,) * 2000) == Atom("al"), strategy
    assert replay_derivation(d, PAPER7, lam)
    assert replay_derivation(Derivation(d.start, d.steps, d.level), PAPER7, lam)
print("deep formers: 2000 alternating xi/mu over sigma(sigma(al)) normalized both ways, each replayed with its full-step copy")
nest = 5
for _ in range(4000):
    nest = Xi("v", nest)
assert [(v.kind, v.position, v.message) for v in validate(nest, lam).violations] == [("bad-term", (0,) * 4000, "not a path term: 5")]
try:
    mu_measure(nest)
    raise AssertionError("mu_measure counted a non-term")
except TypeError as exc:
    assert str(exc) == "not a path term: 5", exc
print("deep formers: a non-term under 4000 xi located by validate, one violation; mu_measure raises TypeError")
triangle = Context(("A",), {"a": "A", "b": "A", "c": "A"}, {}, {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A"), "u": AtomDecl("a", "c", "A")})
tower = _composable_triple(triangle, 12, random.Random(0))[0]
assert validate(tower, triangle).ok
endpoints(tower, triangle)
print("tower: a level-12 sampler term validated and its endpoints taken")
