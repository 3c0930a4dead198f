"""Independent equality oracle and desk-scale experiments.

A path term maps to a reduced word in the free groupoid generated by the
context's step atoms; the seven rules are groupoid laws, so two terms are
connected by contractions exactly when their words agree. Congruence formers
and recorded steps enter as opaque generators keyed by their canonicalized
content, which keeps the word map invariant under contractions beneath them.

Also here: exhaustive enumeration of small level-1 terms, the paths between
elements, and a local confluence check over them that builds each term's
normal forms from its children's (see ``check_confluence``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import PathRwError, UnknownAtom
from .rules import PSym, PTrans, PVar, RuleSet, Template, _contract_from, build_template
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


def enumerate_terms(ctx: Context, max_size: int) -> Iterator[PathTerm]:
    """Every well-formed level-1 term of size <= max_size, once each, by size.

    The terms are built over the context's atoms and elements; congruence
    formers are left out, since their binder and lambda supply is open-ended.
    Size 1 is the atoms, then ``rho`` of each element. Size k is ``sigma`` of
    every size k-1 term, then every ``tau(left, right)`` whose endpoints meet,
    left size ascending. Each row carries its term's endpoints.
    """
    by_size: list[list[tuple[PathTerm, Object, Object]]] = [[]]  # (term, source, target) rows
    for k in range(1, max_size + 1):
        if k == 1:
            rows = [(Atom(n), Object(0, d.source), Object(0, d.target)) for n, d in ctx.atoms.items()]
            rows += [(Refl(Object(0, n)), Object(0, n), Object(0, n)) for n in ctx.elements]
        else:
            rows = [(Sym(t), tgt, src) for t, src, tgt in by_size[k - 1]]
            for i in range(1, k - 1):
                right_rows = by_size[k - 1 - i]
                for left, src, mid in by_size[i]:
                    rows += [(Trans(left, right), src, tgt) for right, rsrc, tgt in right_rows if rsrc == mid]
        by_size.append(rows)
        for row in rows:
            yield row[0]


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


# A node over normal children, as the walker sees it: only the root is left to visit.
_SEAMS = {Trans: PTrans(PVar("l"), PVar("r")), Sym: PSym(PVar("b"))}


def check_confluence(rs: RuleSet, ctx: Context, max_size: int) -> list[Peak]:
    """Local confluence at desk scale: the peaks among the enumerated terms.

    A peak is a pair of redexes of one term, in ``match_redexes`` order,
    whose contracta have different leftmost-innermost normal forms. Under
    innermost order a term's normal form is its root walked over its
    children's normal forms, so no contractum is normalized from scratch:
    each term's facts (normal form, redexes, each contractum's normal form)
    come from its children's, enumerated before it. A contraction in a child
    joins the child's contractum normal form with its sibling's; one at the
    root builds the right-hand side over the bound subterms' normal forms and
    walks only what it built. ``join`` memoizes the normal form of a node over
    normal children by its class and its children's identities.
    """
    if max_size < 1:
        raise PathRwError("max size must be at least 1")

    def walked(node: PathTerm, template: Template) -> PathTerm:
        for _, _, _, node in _contract_from(node, template, rs, ctx):
            pass
        return node

    joined: dict[tuple[type, int, int], tuple] = {}  # also holds the children, so no id is reused

    def join(tp: type, a: PathTerm, b: PathTerm | None = None) -> PathTerm:
        key = tp, id(a), id(b)
        hit = joined.get(key)
        if hit is None:
            node = Trans(a, b) if tp is Trans else Sym(a)
            hit = joined[key] = a, b, walked(node, _SEAMS[tp])
        return hit[2]

    # id(term) -> (term, normal form, redexes as (rule, position), each contractum's normal form)
    facts: dict[int, tuple[PathTerm, PathTerm, list, list]] = {}
    peaks = []
    for t in enumerate_terms(ctx, max_size):
        tp = type(t)
        if tp is Trans:
            _, lnf, lred, lnfs = facts[id(t.left)]
            _, rnf, rred, rnfs = facts[id(t.right)]
            nf = join(Trans, lnf, rnf)
            redexes = [(rule, (0, *pos)) for rule, pos in lred] + [(rule, (1, *pos)) for rule, pos in rred]
            nfs = [join(Trans, c, rnf) for c in lnfs] + [join(Trans, lnf, c) for c in rnfs]
        elif tp is Sym:
            _, bnf, bred, bnfs = facts[id(t.body)]
            nf = join(Sym, bnf)
            redexes = [(rule, (0, *pos)) for rule, pos in bred]
            nfs = [join(Sym, c) for c in bnfs]
        else:
            facts[id(t)] = t, t, [], []
            continue
        for schema, binding in rs.matches(t, 1):
            for name, bound in binding.items():
                if type(bound) is not Object:
                    binding[name] = facts[id(bound)][1]
            redexes.append((schema.display_name, ()))
            nfs.append(walked(build_template(schema.rhs, binding, ctx), schema.rhs))
        facts[id(t)] = t, nf, redexes, nfs
        for ((r1, p1), n1), ((r2, p2), n2) in itertools.combinations(zip(redexes, nfs), 2):
            if n1 != n2:
                peaks.append(Peak(t, r1, p1, n1, r2, p2, n2))
    return peaks
