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
from dataclasses import dataclass
from typing import Iterator

from .errors import PathRwError
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
    endpoints,
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
    letters = list(w1.letters)
    for letter in w2.letters:
        if letters and letters[-1].gen == letter.gen and letters[-1].orient == -letter.orient:
            letters.pop()
        else:
            letters.append(letter)
    return ReducedWord(w1.base, tuple(letters))


def _reverse(w: ReducedWord) -> ReducedWord:
    return ReducedWord(w.target, tuple(l.inverse() for l in reversed(w.letters)))


def word(t: PathTerm, ctx: Context) -> ReducedWord:
    """The reduced word of a path term.

    Refl is empty, Sym reverses and flips orientations, Trans concatenates
    with cancellation; atoms, formers, and recorded steps are single letters.
    """
    tp = type(t)
    if tp is Trans:
        return _concat(word(t.left, ctx), word(t.right, ctx))
    if tp is Sym:
        return _reverse(word(t.body, ctx))
    if tp is Refl:
        return ReducedWord(t.obj, ())
    if tp is Atom:
        key: object = ("atom", t.name)
    elif tp is StepAtom:
        key = ("step", t.step)
    elif tp is Xi:
        key = ("xi", t.var, read_back(word(t.body, ctx)))
    elif tp is Mu:
        key = ("mu", t.func, read_back(word(t.body, ctx)))
    elif tp is Nu:
        key = ("nu", t.arg, read_back(word(t.body, ctx)))
    else:
        raise TypeError(f"not a path term: {t!r}")
    src, tgt = endpoints(t, ctx)
    return ReducedWord(src, (Letter(key, 1, src, tgt),))


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
