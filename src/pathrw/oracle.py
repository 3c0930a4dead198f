"""Independent equality oracle and desk-scale experiments.

A path term maps to a reduced word in the free groupoid generated by the
context's step atoms; the seven rules are groupoid laws, so two terms are
connected by contractions exactly when their words agree. Each generator is
keyed by its own term: an atom, a recorded step, or a former over its body's
canonical term, so the word map is invariant under contractions beneath it.
``word`` is one linear walk that pushes inversion down to the leaves; it
accepts exactly the terms ``endpoints`` accepts and raises what it raises.

Also here: exhaustive enumeration of small level-1 terms, the paths between
elements, and a local confluence check over them that builds each term's
normal forms from its children's (see ``check_confluence``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import PathRwError, UnresolvedLambda
from .rules import PSym, PTrans, PVar, RuleSet, _innermost, step_name
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
    gc_paused,
    value,
    with_child,
)


@value
class Letter:
    """One oriented generator occurrence; src/tgt are after orientation."""

    gen: PathTerm  # the generator's own term: an Atom, StepAtom, or Xi, Mu, Nu over a canonical body
    orient: int  # +1 or -1
    src: Object
    tgt: Object


@value
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


def word(t: PathTerm, ctx: Context) -> ReducedWord:
    """The reduced word of a path term; raises what ``endpoints`` raises.

    Refl is empty, Sym inverts, Trans concatenates with cancellation; atoms,
    formers, and recorded steps are single letters, keyed by their own terms.
    The walk is ``endpoints``' leaf walk: it descends a Trans's left child
    inline and pushes the right one (the other way round under negative
    polarity), and a Sym flips the polarity; so the leaves come in path order,
    each chained to the last. An atom's two letters are its declaration's
    (``AtomDecl.letters``), shared by every word over it, and cancel against
    the top of the output by identity; a recorded step's letter is built, and
    cancels by key and ``==``. A former opens a segment of the output, walks
    its body at positive polarity, and puts its own letter in the segment's
    place, keyed by itself over the segment read back. The open segment's
    start, first source and last target are locals, stacked while a former is
    open. A leaf that does not chain, or an atom, object or former that
    ``endpoints`` rejects, makes ``word`` call ``endpoints``, which raises.
    """
    root, atoms, out, todo, opened = t, ctx.atoms, [], [], []
    pol, start, first, last = 1, 0, None, None  # the open segment: its start in out, first source, last target
    while True:
        tp = type(t)
        if tp is Trans:
            todo.append((t.right, 1) if pol == 1 else (t.left, -1))
            t = t.left if pol == 1 else t.right
            continue
        if tp is Sym:
            t, pol = t.body, -pol
            continue
        if tp is Atom:
            decl = atoms.get(t.name)
            if decl is None:
                break
            pair = decl.letters.get(t.name)
            if pair is None:
                src, tgt = decl.ends
                pair = decl.letters.setdefault(t.name, (Letter(t, 1, src, tgt), Letter(t, -1, tgt, src)))
            letter = pair[pol == -1]  # pair is (forward, inverse)
            src, tgt = letter.src, letter.tgt
        else:
            key = None
            if tp is Refl:
                src = tgt = t.obj
                try:
                    lv = src.level
                except AttributeError:  # no object
                    break
                if lv < 0 or lv == 0 and isinstance(src.payload, str) and src.payload not in ctx.elements:
                    break
            elif tp is StepAtom:
                step = t.step
                try:
                    src, tgt, key = Object(step.level, step.before), Object(step.level, step.after), t
                except AttributeError:  # no step
                    break
            elif tp is Xi or tp is Mu or tp is Nu:
                if pol == 1 or pol == -1:  # open: +-2 marks the former's close, popped after its body
                    todo.append((t, 2 * pol))
                    opened.append((start, first, last))
                    t, pol, start, first, last = t.body, 1, len(out), None, None
                    continue
                pol //= 2
                key = with_child(t, 0, read_back(ReducedWord(first, tuple(out[start:]))))
                del out[start:]
                try:
                    src, tgt = former_endpoints(t, applied_lambda(t, ctx), (first, last), ctx)
                except UnresolvedLambda:
                    break
                start, first, last = opened.pop()
            else:
                break
            if pol == -1:
                src, tgt = tgt, src
        if first is None:
            first = src
        elif last is not src and last != src:
            break
        last = tgt
        if tp is Atom:
            if len(out) > start and out[-1] is pair[pol == 1]:
                out.pop()
            else:
                out.append(letter)
        elif key is not None:
            if len(out) > start and (out[-1].gen is key or out[-1].gen == key) and out[-1].orient == -pol:
                out.pop()
            else:
                out.append(Letter(key, pol, src, tgt))
        if not todo:
            return ReducedWord(first, tuple(out))
        t, pol = todo.pop()
    endpoints(root, ctx)
    raise RuntimeError("internal error: word rejected a term that endpoints accepts")


def read_back(w: ReducedWord) -> PathTerm:
    """The canonical term of a word: its generators chained to the right, an inverse one under Sym."""
    if type(w) is not ReducedWord:
        raise TypeError(f"not a reduced word: {w!r}")
    if not w.letters:
        return Refl(w.base)
    pieces = []
    for letter in w.letters:
        if type(letter.gen) not in (Atom, StepAtom, Xi, Mu, Nu):
            raise PathRwError(f"unreadable generator key: {letter.gen!r}")
        pieces.append(letter.gen if letter.orient == 1 else Sym(letter.gen))
    result = pieces[-1]
    for piece in reversed(pieces[:-1]):
        result = Trans(piece, result)
    return result


def oracle_equal(s: PathTerm, t: PathTerm, ctx: Context) -> bool:
    """True iff the two terms have the same reduced word, base included.

    An ill-formed term raises what ``endpoints`` raises.
    """
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
            rows = [(Atom(n), *d.ends) for n, d in ctx.atoms.items()]
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


@gc_paused
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

    joined: dict[tuple[type, int, int], tuple] = {}  # also holds the children, so no id is reused

    def join(tp: type, a: PathTerm, b: PathTerm | None = None) -> PathTerm:
        key = tp, id(a), id(b)
        hit = joined.get(key)
        if hit is None:
            node = Trans(a, b) if tp is Trans else Sym(a)
            hit = joined[key] = a, b, _innermost(node, _SEAMS[tp], rs, ctx)[0]
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
        for schema, binding in rs.matches(t):
            for name, bound in binding.items():
                if type(bound) is not Object:
                    binding[name] = facts[id(bound)][1]
            redexes.append((step_name(schema.name, 1), ()))
            nfs.append(_innermost(schema.build(binding, ctx), schema.rhs, rs, ctx)[0])
        facts[id(t)] = t, nf, redexes, nfs
        for ((r1, p1), n1), ((r2, p2), n2) in itertools.combinations(zip(redexes, nfs), 2):
            if n1 != n2:
                peaks.append(Peak(t, r1, p1, n1, r2, p2, n2))
    return peaks
