"""Independent equality oracle and desk-scale experiments.

A path term maps to a reduced word in the free groupoid generated by the
context's step atoms; the seven rules are groupoid laws, so two terms are
connected by contractions exactly when their words agree. Congruence formers
and recorded steps enter as opaque generators keyed by their canonicalized
content, which keeps the word map invariant under contractions beneath them.

Also here: exhaustive small-term enumeration and a brute-force local
confluence check (enumerate peaks, join by normalization).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import PathRwError, UnknownAtom
from .rules import RuleSet, contractions, match_redexes
from .terms import (
    Atom,
    Context,
    Mu,
    Nu,
    Object,
    PathTerm,
    Position,
    Refl,
    StepAtom,
    Sym,
    Trans,
    Xi,
    applied_lambda,
    endpoints,
    former_endpoints,
)


@dataclass(frozen=True, slots=True)
class Letter:
    """One oriented generator occurrence; src/tgt are after orientation."""

    gen: object
    orient: int  # +1 or -1
    src: Object
    tgt: Object

    def inverse(self) -> Letter:
        return Letter(self.gen, -self.orient, self.tgt, self.src)


@dataclass(frozen=True, slots=True)
class ReducedWord:
    """Fully cancelled generator word, based at its source object."""

    base: Object
    letters: tuple[Letter, ...]

    @property
    def source(self) -> Object:
        return self.base

    @property
    def target(self) -> Object:
        return self.letters[-1].tgt if self.letters else self.base


def _concat(w1: ReducedWord, w2: ReducedWord) -> ReducedWord:
    return ReducedWord(w1.base, tuple(_join(w1.letters, w2.letters)))


def _join(left, right) -> deque:
    """``left`` then ``right``, cancelled at the seam: the shorter moves into the longer, reused if a deque."""
    if len(left) >= len(right):
        host = left if type(left) is deque else deque(left)
        for letter in right:
            if host and host[-1].gen == letter.gen and host[-1].orient == -letter.orient:
                host.pop()
            else:
                host.append(letter)
        return host
    host = right if type(right) is deque else deque(right)
    for letter in reversed(left):
        if host and host[0].gen == letter.gen and host[0].orient == -letter.orient:
            host.popleft()
        else:
            host.appendleft(letter)
    return host


def _reverse(w: ReducedWord) -> ReducedWord:
    return ReducedWord(w.target, tuple(l.inverse() for l in reversed(w.letters)))


def word(t: PathTerm, ctx: Context) -> ReducedWord:
    """The reduced word of a path term.

    Refl is empty, Sym reverses and flips orientations, Trans concatenates
    with cancellation; atoms, formers, and recorded steps are single letters.
    The walk is post-order on an explicit stack. A former takes its endpoints
    from its body's word, unless the walk met a node in the body that
    ``endpoints`` rejects: then it calls ``endpoints``, which raises.
    """
    # Per node above t: [node, its left child's (base, letters) once walked], or [former, flaws on entry].
    frames: list = []
    formers = flaws = 0  # formers among the frames; nodes met inside one that endpoints rejects
    while True:
        tp = type(t)
        if tp is Trans or tp is Sym:
            frames.append([t, None])
            t = t.left if tp is Trans else t.body
            continue
        if tp is Xi or tp is Mu or tp is Nu:
            frames.append([t, flaws])
            formers += 1
            t = t.body
            continue
        if tp is Refl:
            base, letters = t.obj, ()
            payload = base.payload
            if formers and base.level == 0 and isinstance(payload, str) and payload not in ctx.elements:
                flaws += 1
        else:
            if tp is Atom:
                decl = ctx.atoms.get(t.name)
                if decl is None:
                    raise UnknownAtom(t.name)
                src, tgt = Object(0, decl.source), Object(0, decl.target)
                key: object = ("atom", t.name)
            elif tp is StepAtom:
                src, tgt = Object(t.step.level, t.step.before), Object(t.step.level, t.step.after)
                key = ("step", t.step)
            else:
                raise TypeError(f"not a path term: {t!r}")
            base, letters = src, (Letter(key, 1, src, tgt),)
        while frames:
            frame = frames[-1]
            node = frame[0]
            tp = type(node)
            if tp is Sym:
                base = letters[-1].tgt if letters else base
                letters = [letter.inverse() for letter in reversed(letters)]
            elif tp is not Trans:
                formers -= 1
                body = ReducedWord(base, tuple(letters))
                label = node.var if tp is Xi else node.func if tp is Mu else node.arg
                key = ("xi" if tp is Xi else "mu" if tp is Mu else "nu", label, read_back(body))
                if flaws == frame[1]:
                    ends = body.source, body.target
                    src, tgt = former_endpoints(node, applied_lambda(node, ctx), ends, ctx)
                else:
                    src, tgt = endpoints(node, ctx)
                base, letters = src, (Letter(key, 1, src, tgt),)
            elif frame[1] is None:
                frame[1] = base, letters
                t = node.right
                break
            else:
                lbase, left = frame[1]
                if formers and (left[-1].tgt if left else lbase) != base:
                    flaws += 1
                base, letters = lbase, _join(left, letters)
            frames.pop()
        else:
            return ReducedWord(base, tuple(letters))


def read_back(w: ReducedWord) -> PathTerm:
    """The canonical term of a word: a right-nested chain of letter terms."""
    if not w.letters:
        return Refl(w.base)
    pieces = [_letter_term(letter) for letter in w.letters]
    result = pieces[-1]
    for piece in reversed(pieces[:-1]):
        result = Trans(piece, result)
    return result


def _letter_term(letter: Letter) -> PathTerm:
    gen = letter.gen
    shape = None
    if isinstance(gen, tuple) and len(gen) in (2, 3) and (gen[0] == "step" or isinstance(gen[1], str)):
        shape = gen[0], len(gen)
    if shape == ("atom", 2):
        base: PathTerm = Atom(gen[1])
    elif shape == ("xi", 3):
        base = Xi(gen[1], gen[2])
    elif shape == ("mu", 3):
        base = Mu(gen[1], gen[2])
    elif shape == ("nu", 3):
        base = Nu(gen[2], gen[1])
    elif shape == ("step", 2):
        base = StepAtom(gen[1])
    else:
        raise PathRwError(f"unreadable generator key: {letter.gen!r}")
    return base if letter.orient == 1 else Sym(base)


def oracle_equal(s: PathTerm, t: PathTerm, ctx: Context) -> bool:
    """True iff the two terms have the same reduced word, base included."""
    return word(s, ctx) == word(t, ctx)


def enumerate_terms(ctx: Context, max_size: int, lvl: int = 1) -> Iterator[PathTerm]:
    """Every well-formed term of size <= max_size at the given level, once each.

    Level 1 enumerates over the context's atoms and elements (congruence
    formers are excluded: their binder and lambda supply is open-ended).
    From level 2 up the atom supply is taken to be the single forward
    contractions of the enumerated terms one level down, and trivial paths
    range over those same terms; this is only meant for desk-scale sizes.
    """
    if lvl < 1:
        raise ValueError("levels start at 1")
    for by_size in _tables(ctx, max_size, lvl):
        yield from by_size


def _tables(ctx: Context, max_size: int, lvl: int) -> list[list[PathTerm]]:
    """Terms grouped by exact size, each list in deterministic order."""
    leaves = list(_leaves(ctx, max_size, lvl))
    by_size: list[list[PathTerm]] = [[] for _ in range(max_size + 1)]
    ends: dict[PathTerm, tuple[Object, Object]] = {}
    if max_size >= 1:
        for term, (src, tgt) in leaves:
            by_size[1].append(term)
            ends[term] = (src, tgt)
    for k in range(2, max_size + 1):
        for t in by_size[k - 1]:
            sym = Sym(t)
            src, tgt = ends[t]
            ends[sym] = (tgt, src)
            by_size[k].append(sym)
        for i in range(1, k - 1):
            j = k - 1 - i
            for left in by_size[i]:
                lsrc, ltgt = ends[left]
                for right in by_size[j]:
                    rsrc, rtgt = ends[right]
                    if ltgt == rsrc:
                        trans = Trans(left, right)
                        ends[trans] = (lsrc, rtgt)
                        by_size[k].append(trans)
    return by_size[1:]


def _leaves(ctx: Context, max_size: int, lvl: int) -> Iterator[tuple[PathTerm, tuple[Object, Object]]]:
    if lvl == 1:
        for name in ctx.atoms:
            t = Atom(name)
            yield t, endpoints(t, ctx)
        for name in ctx.elements:
            obj = Object(0, name)
            yield Refl(obj), (obj, obj)
        return
    from .engine import contract_once
    from .rules import PAPER7

    below = list(enumerate_terms(ctx, max_size, lvl - 1))
    for u in below:
        for rule, pos in match_redexes(PAPER7, u):
            _, step = contract_once(u, rule, pos, PAPER7, ctx)
            t = StepAtom(step)
            yield t, endpoints(t, ctx)
    for u in below:
        obj = Object(lvl - 1, u)
        yield Refl(obj), (obj, obj)


@dataclass(frozen=True, slots=True)
class Peak:
    """A term with two one-step contractions whose normal forms differ."""

    term: PathTerm
    left_rule: str
    left_pos: Position
    left_nf: PathTerm
    right_rule: str
    right_pos: Position
    right_nf: PathTerm


def check_confluence(rs: RuleSet, ctx: Context, max_size: int) -> list[Peak]:
    """Brute-force local confluence at desk scale.

    For every enumerated term, contract each redex once, normalize all the
    contracta, and report every pair that lands on different normal forms.
    """
    from .engine import contract_once

    nf_cache: dict[PathTerm, PathTerm] = {}

    def nf(t: PathTerm) -> PathTerm:
        # Enumerated terms and their contracta are well formed, so this walks
        # without normalize's entry check and without recording steps.
        cached = nf_cache.get(t)
        if cached is None:
            cached = t
            for _, _, _, cached in contractions(t, rs, ctx):
                pass
            nf_cache[t] = cached
        return cached

    peaks = []
    for t in enumerate_terms(ctx, max_size, 1):
        redexes = match_redexes(rs, t)
        if len(redexes) < 2:
            continue
        contracta = [(rule, pos, contract_once(t, rule, pos, rs, ctx)[0]) for rule, pos in redexes]
        for (r1, p1, c1), (r2, p2, c2) in itertools.combinations(contracta, 2):
            n1, n2 = nf(c1), nf(c2)
            if n1 != n2:
                peaks.append(Peak(t, r1, p1, n1, r2, p2, n2))
    return peaks
