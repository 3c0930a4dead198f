"""Weak category and groupoid laws, witnessed at every tower level.

Each law check builds the law's left-hand side and returns the derivation
that carries it to the right-hand side: a single named rule application,
instantiated at the terms' own level. The suite runner samples random
composable tuples (random contraction chains lifted one level up, for
levels past the first), runs all five checks, and replays every witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EndpointMismatch, LevelMismatch, PathRwError
from .engine import (
    Derivation,
    concat_derivations,
    contract_once,
    derivation_to_path,
    invert_derivation,
    replay_derivation,
)
from .rules import PAPER7, match_redexes
from .terms import (
    Atom,
    Context,
    Object,
    PathTerm,
    Refl,
    Sym,
    Trans,
    endpoints,
    level,
)

LAWS = ("assoc", "left-unit", "right-unit", "left-inverse", "right-inverse")


@dataclass(frozen=True, slots=True)
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
    _, s_tgt = endpoints(s, ctx)
    r_src, _ = endpoints(r, ctx)
    if s_tgt != r_src:
        raise EndpointMismatch((), s_tgt, r_src)
    return Trans(s, r)


def _single_step_report(
    law: str, lhs: PathTerm, rule: str, lv: int, inputs: tuple[PathTerm, ...], ctx: Context
) -> LawReport:
    _, step = contract_once(lhs, rule, (), PAPER7, ctx)
    witness = Derivation(lhs, (step,), lv)
    return LawReport(law, lv, inputs, witness, replay_derivation(witness, PAPER7, ctx))


def check_assoc(s: PathTerm, r: PathTerm, t: PathTerm, lv: int, ctx: Context) -> LawReport:
    """Witness that the two associations of a composable triple are connected."""
    _require_level((s, r, t), lv)
    lhs = compose(compose(s, r, ctx), t, ctx)
    return _single_step_report("assoc", lhs, "tt", lv, (s, r, t), ctx)


def check_units(s: PathTerm, lv: int, ctx: Context) -> tuple[LawReport, LawReport]:
    """Witnesses that the trivial paths at both endpoints act as units on ``s``."""
    _require_level((s,), lv)
    src, tgt = endpoints(s, ctx)
    left = _single_step_report("left-unit", Trans(Refl(src), s), "tlr", lv, (s,), ctx)
    right = _single_step_report("right-unit", Trans(s, Refl(tgt)), "trr", lv, (s,), ctx)
    return left, right


def check_inverses(s: PathTerm, lv: int, ctx: Context) -> tuple[LawReport, LawReport]:
    """Witnesses that the inverse of ``s`` cancels it on both sides."""
    _require_level((s,), lv)
    left = _single_step_report("left-inverse", Trans(s, Sym(s)), "tr", lv, (s,), ctx)
    right = _single_step_report("right-inverse", Trans(Sym(s), s), "tsr", lv, (s,), ctx)
    return left, right


def _require_level(terms: tuple[PathTerm, ...], lv: int) -> None:
    for t in terms:
        if level(t) != lv:
            raise LevelMismatch(f"term is at level {level(t)}, law check at level {lv}")


def run_laws(ctx: Context, lv: int, samples: int, seed: int) -> LawSuiteReport:
    """Run the five law checks on ``samples`` random composable tuples."""
    if lv < 1:
        raise PathRwError("levels start at 1")
    rng = random.Random(seed)
    reports: list[LawReport] = []
    for _ in range(samples):
        s, r, t = _composable_triple(ctx, lv, rng)
        reports.append(check_assoc(s, r, t, lv, ctx))
        reports.extend(check_units(s, lv, ctx))
        reports.extend(check_inverses(s, lv, ctx))
    return LawSuiteReport(lv, samples, seed, tuple(reports))


# --- random sampling -------------------------------------------------------


def _composable_triple(ctx: Context, lv: int, rng: random.Random) -> tuple[PathTerm, PathTerm, PathTerm]:
    if lv == 1:
        s = _random_path(ctx, rng, depth=rng.randint(0, 3))
        _, s_tgt = endpoints(s, ctx)
        r = _random_path_from(s_tgt, ctx, rng, depth=rng.randint(0, 2))
        _, r_tgt = endpoints(r, ctx)
        t = _random_path_from(r_tgt, ctx, rng, depth=rng.randint(0, 2))
        return s, r, t
    u = _random_term_at_level(ctx, lv - 1, rng)
    s, v = _lift_from(u, ctx, rng)
    r, w = _lift_from(v, ctx, rng)
    t, _ = _lift_from(w, ctx, rng)
    return s, r, t


def _random_term_at_level(ctx: Context, lv: int, rng: random.Random) -> PathTerm:
    if lv == 1:
        return _wrap_redundant(_random_path(ctx, rng, depth=rng.randint(0, 2)), ctx, rng)
    base = _random_term_at_level(ctx, lv - 1, rng)
    return _lift_from(base, ctx, rng)[0]


def _lift_from(u: PathTerm, ctx: Context, rng: random.Random) -> tuple[PathTerm, PathTerm]:
    """A one-level-up path starting at ``u``: lift a short recorded derivation.

    Walks forward to a reduct of ``u``, then backwards into a redundancy
    wrapping of it, so lifted paths mix forward and reverse steps while
    staying small at every tower level. Returns (lifted path, its target).
    """
    d_forward = _random_step_derivation(u, ctx, rng)
    v, d_unwrap = _recorded_wrap(d_forward.end, ctx, rng)
    d = concat_derivations(d_forward, invert_derivation(d_unwrap))
    lifted = _wrap_redundant(derivation_to_path(d), ctx, rng)
    return lifted, v


def _random_step_derivation(u: PathTerm, ctx: Context, rng: random.Random) -> Derivation:
    """A recorded chain of up to three forward contractions from ``u``."""
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


_WRAP_RULES = ("ss", "tlr", "trr")


def _recorded_wrap(w: PathTerm, ctx: Context, rng: random.Random) -> tuple[PathTerm, Derivation]:
    """Wrap ``w`` in redundancy; returns the wrapped term and its unwrapping.

    The unwrapping derivation peels the wrappers at the root, one forward
    contraction per layer.
    """
    rules: list[str] = []
    v = w
    for _ in range(rng.randint(0, 2)):
        src, tgt = endpoints(v, ctx)
        rule = rng.choice(_WRAP_RULES)
        if rule == "ss":
            v = Sym(Sym(v))
        elif rule == "tlr":
            v = Trans(Refl(src), v)
        else:
            v = Trans(v, Refl(tgt))
        rules.append(rule)
    steps = []
    cur = v
    for rule in reversed(rules):
        cur, step = contract_once(cur, rule, (), PAPER7, ctx)
        steps.append(step)
    return v, Derivation(v, tuple(steps), level(w))


def _wrap_redundant(t: PathTerm, ctx: Context, rng: random.Random) -> PathTerm:
    """Dress a term in endpoint-preserving redundancy, for livelier samples."""
    for _ in range(rng.randint(0, 2)):
        src, tgt = endpoints(t, ctx)
        choice = rng.randrange(3)
        if choice == 0:
            t = Sym(Sym(t))
        elif choice == 1:
            t = Trans(Refl(src), t)
        else:
            t = Trans(t, Refl(tgt))
    return t


def _random_path(ctx: Context, rng: random.Random, depth: int) -> PathTerm:
    """A random well-formed level-1 term with free endpoints."""
    src = Object(0, rng.choice(list(ctx.elements)))
    return _random_path_from(src, ctx, rng, depth)


def _random_path_from(
    end: Object, ctx: Context, rng: random.Random, depth: int, forward: bool = True
) -> PathTerm:
    """A random level-1 term starting at ``end``, or ending there if not ``forward``."""
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
        return Sym(_random_path_from(end, ctx, rng, depth - 1, not forward))
    if kind == "trans":
        # Drawn from ``end`` outwards: the left half first going forward, the right one backward.
        near = _random_path_from(end, ctx, rng, depth - 1, forward)
        mid = endpoints(near, ctx)[1 if forward else 0]
        far = _random_path_from(mid, ctx, rng, depth - 1, forward)
        return Trans(near, far) if forward else Trans(far, near)
    return Refl(end)
