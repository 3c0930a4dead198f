"""Weak category and groupoid laws, witnessed at every tower level.

Each law check builds the law's left-hand side and returns the derivation
that carries it to the right-hand side: a single named rule application,
its step named for the terms' own level. The suite runner samples random
composable tuples (random contraction chains lifted one level up, for
levels past the first), runs all five checks, and replays every witness.
A witness is kept in the engine's edit form (see ``engine.Derivation``):
the one edit checked is the one kept, and its step is built when first read.

The sampler climbs the tower in a loop and threads the level and the
endpoints, which contracting and wrapping keep, instead of reading them; a
random step contracts the redex the one redex walk found, and a lifted path
is built from its step atoms as they are drawn. A level-1 path draws its
atoms by the element names their declarations hold. The public checks build
the law instances with the suite's helpers once their inputs check out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EndpointMismatch, LevelMismatch, PathRwError
from .engine import Derivation, RewriteStep, _compose_lifted, _legal
from .rules import FORWARD, PAPER7, redexes, step_name
from .terms import (
    Atom,
    Context,
    Object,
    PathTerm,
    Refl,
    StepAtom,
    Sym,
    Trans,
    endpoints,
    gc_paused,
    level,
    replace_at,
    value,
)

LAWS = ("assoc", "left-unit", "right-unit", "left-inverse", "right-inverse")


@value
class LawReport:
    """One law instance: the sampled inputs, the witness, and its replay result."""

    law: str
    level: int
    inputs: tuple[PathTerm, ...]
    witness: Derivation
    verified: bool


@dataclass(frozen=True, slots=True)
class LawSuiteReport:
    level: int
    samples: int
    seed: int
    reports: tuple[LawReport, ...]

    @property
    def failures(self) -> tuple[LawReport, ...]:
        return tuple(r for r in self.reports if not r.verified)

    def counts(self) -> dict[str, tuple[int, int]]:
        """Per-law (passed, failed) counts."""
        out: dict[str, tuple[int, int]] = {law: (0, 0) for law in LAWS}
        for r in self.reports:
            passed, failed = out[r.law]
            out[r.law] = (passed + 1, failed) if r.verified else (passed, failed + 1)
        return out


def compose(s: PathTerm, r: PathTerm, ctx: Context) -> PathTerm:
    """Sequential composition ``s`` then ``r``; endpoints must meet."""
    _meet(endpoints(s, ctx)[1], r, ctx)
    return Trans(s, r)


def _meet(end: Object, r: PathTerm, ctx: Context) -> Object:
    """The target of ``r``, which must start at ``end``."""
    r_src, r_tgt = endpoints(r, ctx)
    if end != r_src:
        raise EndpointMismatch((), end, r_src)
    return r_tgt


def check_assoc(s: PathTerm, r: PathTerm, t: PathTerm, lv: int, ctx: Context) -> LawReport:
    """Witness that the two associations of a composable triple are connected."""
    _require_level((s, r, t), lv)
    _meet(_meet(endpoints(s, ctx)[1], r, ctx), t, ctx)
    return _assoc(s, r, t, lv, ctx)


def check_units(s: PathTerm, lv: int, ctx: Context) -> tuple[LawReport, LawReport]:
    """Witnesses that the trivial paths at both endpoints act as units on ``s``."""
    _require_level((s,), lv)
    return _units(s, *endpoints(s, ctx), lv, ctx)


def check_inverses(s: PathTerm, lv: int, ctx: Context) -> tuple[LawReport, LawReport]:
    """Witnesses that the inverse of ``s`` cancels it on both sides."""
    _require_level((s,), lv)
    return _inverses(s, *endpoints(s, ctx), lv, ctx)


def _require_level(terms: tuple[PathTerm, ...], lv: int) -> None:
    for t in terms:
        if level(t) != lv:
            raise LevelMismatch(f"term is at level {level(t)}, law check at level {lv}")


def _law(law: str, rule: str, lhs: PathTerm, rhs: PathTerm, inputs: tuple, lv: int, ctx: Context) -> LawReport:
    """A law on well-formed, composable inputs: ``lhs`` to ``rhs`` by ``rule`` at the root.

    The one edit is checked by ``engine._legal`` and kept as the witness's
    edit, as the engine keeps its own; its step is built when first read.
    """
    edit = (step_name(rule, lv), (), FORWARD, lhs, rhs)
    return LawReport(law, lv, inputs, Derivation._from_edits(lhs, (edit,), rhs, lv), _legal(edit, lv, PAPER7, ctx))


def _assoc(s: PathTerm, r: PathTerm, t: PathTerm, lv: int, ctx: Context) -> LawReport:
    return _law("assoc", "tt", Trans(Trans(s, r), t), Trans(s, Trans(r, t)), (s, r, t), lv, ctx)


def _units(s: PathTerm, src: Object, tgt: Object, lv: int, ctx: Context) -> tuple[LawReport, LawReport]:
    left = _law("left-unit", "tlr", Trans(Refl(src), s), s, (s,), lv, ctx)
    return left, _law("right-unit", "trr", Trans(s, Refl(tgt)), s, (s,), lv, ctx)


def _inverses(s: PathTerm, src: Object, tgt: Object, lv: int, ctx: Context) -> tuple[LawReport, LawReport]:
    left = _law("left-inverse", "tr", Trans(s, Sym(s)), Refl(src), (s,), lv, ctx)
    return left, _law("right-inverse", "tsr", Trans(Sym(s), s), Refl(tgt), (s,), lv, ctx)


@gc_paused
def run_laws(ctx: Context, lv: int, samples: int, seed: int) -> LawSuiteReport:
    """Run the five law checks on ``samples`` random composable tuples."""
    if lv < 1:
        raise PathRwError("levels start at 1")
    if samples < 0:
        raise PathRwError("samples must be at least 0")
    if samples and not ctx.elements:
        raise PathRwError("no elements to sample paths from")
    rng = random.Random(seed)
    reports: list[LawReport] = []
    for _ in range(samples):
        s, r, t, src, tgt = _composable_triple(ctx, lv, rng)
        reports.append(_assoc(s, r, t, lv, ctx))
        reports.extend(_units(s, src, tgt, lv, ctx))
        reports.extend(_inverses(s, src, tgt, lv, ctx))
    return LawSuiteReport(lv, samples, seed, tuple(reports))


# --- random sampling -------------------------------------------------------


def _composable_triple(
    ctx: Context, lv: int, rng: random.Random
) -> tuple[PathTerm, PathTerm, PathTerm, Object, Object]:
    """A composable triple ``s``, ``r``, ``t`` at level ``lv``, with the endpoints of ``s``."""
    if lv == 1:
        s, s_src, s_tgt = _random_path(ctx, rng, depth=rng.randint(0, 3))
        r, r_tgt = _random_path_from(s_tgt, ctx, rng, depth=rng.randint(0, 2))
        t, _ = _random_path_from(r_tgt, ctx, rng, depth=rng.randint(0, 2))
        return s, r, t, s_src, s_tgt
    u, src, tgt = _random_term_at_level(ctx, lv - 1, rng)
    s, v = _lift_from(u, lv - 1, src, tgt, ctx, rng)
    r, w = _lift_from(v, lv - 1, src, tgt, ctx, rng)
    t, _ = _lift_from(w, lv - 1, src, tgt, ctx, rng)
    return s, r, t, Object(lv - 1, u), Object(lv - 1, v)


def _random_term_at_level(ctx: Context, lv: int, rng: random.Random) -> tuple[PathTerm, Object, Object]:
    """A random term at level ``lv`` and its endpoints: a wrapped level-1 path lifted ``lv - 1`` times."""
    t, src, tgt = _random_path(ctx, rng, depth=rng.randint(0, 2))
    t = _wrap(t, src, tgt, rng)[0]
    for k in range(1, lv):
        lifted, v = _lift_from(t, k, src, tgt, ctx, rng)
        t, src, tgt = lifted, Object(k, t), Object(k, v)
    return t, src, tgt


def _lift_from(
    u: PathTerm, lv: int, src: Object, tgt: Object, ctx: Context, rng: random.Random
) -> tuple[PathTerm, PathTerm]:
    """A one-level-up path starting at ``u``, a level-``lv`` term which runs from ``src`` to ``tgt``.

    Walks forward by up to three random contractions, then backwards into a
    redundancy wrapping of the reduct, so lifted paths mix forward and reverse
    steps while staying small at every tower level. Each step is lifted as it is drawn,
    and ``engine._compose_lifted`` joins them, as for ``derivation_to_path``. Returns (path, target).
    """
    pieces = []
    cur = u
    for _ in range(rng.randint(0, 3)):
        found = redexes(PAPER7, cur)
        if not found:
            break
        schema, binding, pos = rng.choice(found)
        after = replace_at(cur, pos, schema.build(binding, ctx))
        pieces.append(StepAtom(RewriteStep(step_name(schema.name, lv), pos, FORWARD, cur, after, lv)))
        cur = after
    v, layers = _wrap(cur, src, tgt, rng)
    for rule, inner, outer in layers:  # innermost first: each unwraps at the root, taken backwards
        pieces.append(Sym(StepAtom(RewriteStep(step_name(rule, lv), (), FORWARD, outer, inner, lv))))
    path = _compose_lifted(pieces, lv, u)
    return _wrap(path, Object(lv, u), Object(lv, v), rng)[0], v


_WRAP_RULES = ("ss", "tlr", "trr")


def _wrap(
    t: PathTerm, src: Object, tgt: Object, rng: random.Random
) -> tuple[PathTerm, list[tuple[str, PathTerm, PathTerm]]]:
    """Dress a term from ``src`` to ``tgt`` in endpoint-preserving redundancy.

    Returns it and its layers, innermost first: the rule that peels each,
    and the terms inside and outside it.
    """
    layers = []
    for _ in range(rng.randint(0, 2)):
        rule = rng.choice(_WRAP_RULES)
        inner = t
        if rule == "ss":
            t = Sym(Sym(t))
        elif rule == "tlr":
            t = Trans(Refl(src), t)
        else:
            t = Trans(t, Refl(tgt))
        layers.append((rule, inner, t))
    return t, layers


def _random_path(ctx: Context, rng: random.Random, depth: int) -> tuple[PathTerm, Object, Object]:
    """A random well-formed level-1 term with free endpoints, and its endpoints."""
    src = Object(0, rng.choice(list(ctx.elements)))
    t, tgt = _random_path_from(src, ctx, rng, depth)
    return t, src, tgt


def _random_path_from(
    end: Object, ctx: Context, rng: random.Random, depth: int, forward: bool = True
) -> tuple[PathTerm, Object]:
    """A random level-1 term starting at ``end``, or ending there if not ``forward``; and its other end."""
    here = end.payload  # a level-0 end: an element name, compared with the declarations' own
    leaving = [(n, d) for n, d in ctx.atoms.items() if d.source == here]
    arriving = [(n, d) for n, d in ctx.atoms.items() if d.target == here]
    ahead, behind = (leaving, arriving) if forward else (arriving, leaving)
    choices = ["refl"]
    if ahead:
        choices.append("atom")
    if depth > 0:
        choices.extend(["trans", "trans"])
        if behind or depth > 1:
            choices.append("sym")
    kind = rng.choice(choices)
    if kind == "atom":
        name, decl = rng.choice(ahead)
        return Atom(name), decl.ends[forward]
    if kind == "sym":
        if behind and (depth <= 1 or rng.random() < 0.5):
            name, decl = rng.choice(behind)
            return Sym(Atom(name)), decl.ends[not forward]
        body, far = _random_path_from(end, ctx, rng, depth - 1, not forward)
        return Sym(body), far
    if kind == "trans":
        # Drawn from ``end`` outwards: the left half first going forward, the right one backward.
        near, mid = _random_path_from(end, ctx, rng, depth - 1, forward)
        far_part, far = _random_path_from(mid, ctx, rng, depth - 1, forward)
        return (Trans(near, far_part) if forward else Trans(far_part, near)), far
    return Refl(end), end
