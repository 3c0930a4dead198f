"""Reference semantics for level-1 path terms, written apart from pathrw.

The benchmark checks pathrw's outputs against these functions, so none of
them calls into pathrw: only its term constructors are shared. They cover
terms built from atoms, reflexivity on elements, symmetry and composition,
which is every level-1 term the workloads generate. Every walk uses an
explicit stack, so deep terms never meet the recursion limit.

- ``ends`` and ``word`` give the endpoints and the reduced free-groupoid
  word; two terms are rw-equal exactly when both agree.
- ``contract`` applies one named rule at a position, so ``check_steps`` can
  replay a derivation step by step.
- ``normalize`` is a plain restart-from-the-root normalizer, used for the
  small terms of the CLI workload, and ``is_normal`` checks a normal form.
- ``fmt`` renders a term in the script syntax; a recorded step one level up
  renders as ``step[rule@position:direction]``, as pathrw displays it.
"""

from __future__ import annotations

from pathrw.terms import Atom, Object, Refl, StepAtom, Sym, Trans

PAPER7_RULES = ("sr", "ss", "tr", "tsr", "tlr", "trr", "tt")
COMPLETE_RULES = PAPER7_RULES + ("st", "trc", "tsrc")
RULES = {"paper7": PAPER7_RULES, "groupoid-complete": COMPLETE_RULES}


class OutsideFragment(Exception):
    """A term is outside the reference fragment or ill-formed."""


def children(t) -> tuple:
    if isinstance(t, Sym):
        return (t.body,)
    if isinstance(t, Trans):
        return (t.left, t.right)
    return ()


def _postorder(t):
    """Nodes with their positions, children first, left to right."""
    stack = [(t, (), False)]
    while stack:
        node, pos, expanded = stack.pop()
        kids = children(node)
        if expanded or not kids:
            yield node, pos
            continue
        stack.append((node, pos, True))
        for i in reversed(range(len(kids))):
            stack.append((kids[i], pos + (i,), False))


def _preorder(t):
    stack = [(t, ())]
    while stack:
        node, pos = stack.pop()
        yield node, pos
        kids = children(node)
        for i in reversed(range(len(kids))):
            stack.append((kids[i], pos + (i,)))


def size(t) -> int:
    return sum(1 for _ in _postorder(t))


def depth(t) -> int:
    return max(len(pos) for _, pos in _postorder(t)) + 1


def ends(t, atoms: dict[str, tuple[str, str]]) -> tuple[str, str]:
    """Source and target element of a level-1 term; raises on a bad chain."""
    values: list[tuple[str, str]] = []
    for node, _ in _postorder(t):
        if isinstance(node, Atom):
            if node.name not in atoms:
                raise OutsideFragment(f"unknown atom {node.name}")
            values.append(atoms[node.name])
        elif isinstance(node, Refl):
            if node.obj.level != 0 or not isinstance(node.obj.payload, str):
                raise OutsideFragment("reflexivity on a non-element")
            values.append((node.obj.payload, node.obj.payload))
        elif isinstance(node, Sym):
            src, tgt = values.pop()
            values.append((tgt, src))
        elif isinstance(node, Trans):
            rsrc, rtgt = values.pop()
            lsrc, ltgt = values.pop()
            if ltgt != rsrc:
                raise OutsideFragment(f"cannot chain {ltgt} to {rsrc}")
            values.append((lsrc, rtgt))
        else:
            raise OutsideFragment(f"outside the reference fragment: {type(node).__name__}")
    return values[0]


def word(t) -> tuple[tuple[str, int], ...]:
    """Reduced word: atom letters in path order, inverse pairs cancelled."""
    out: list[tuple[str, int]] = []
    stack = [(t, False)]
    while stack:
        node, inverted = stack.pop()
        if isinstance(node, Atom):
            letter = (node.name, -1 if inverted else 1)
            if out and out[-1] == (letter[0], -letter[1]):
                out.pop()
            else:
                out.append(letter)
        elif isinstance(node, Sym):
            stack.append((node.body, not inverted))
        elif isinstance(node, Trans):
            first, second = (node.right, node.left) if inverted else (node.left, node.right)
            stack.append((second, inverted))
            stack.append((first, inverted))
        elif not isinstance(node, Refl):
            raise OutsideFragment(f"outside the reference fragment: {type(node).__name__}")
    return tuple(out)


def equal(s, t, atoms) -> bool:
    """The reference verdict: same endpoints and same reduced word."""
    return ends(s, atoms) == ends(t, atoms) and word(s) == word(t)


def _refl(elem: str):
    return Refl(Object(0, elem))


def apply_rule(rule: str, node, atoms):
    """Contractum of ``rule`` at the root of ``node``, or None if no match."""
    if rule == "sr":
        if isinstance(node, Sym) and isinstance(node.body, Refl):
            return node.body
    elif rule == "ss":
        if isinstance(node, Sym) and isinstance(node.body, Sym):
            return node.body.body
    elif rule == "st":
        if isinstance(node, Sym) and isinstance(node.body, Trans):
            return Trans(Sym(node.body.right), Sym(node.body.left))
    elif isinstance(node, Trans):
        left, right = node.left, node.right
        if rule == "tr":
            if isinstance(right, Sym) and right.body == left:
                return _refl(ends(left, atoms)[0])
        elif rule == "tsr":
            if isinstance(left, Sym) and left.body == right:
                return _refl(ends(right, atoms)[1])
        elif rule == "tlr":
            if isinstance(left, Refl):
                return right
        elif rule == "trr":
            if isinstance(right, Refl):
                return left
        elif rule == "tt":
            if isinstance(left, Trans):
                return Trans(left.left, Trans(left.right, right))
        elif rule == "trc":
            if isinstance(right, Trans) and isinstance(right.left, Sym) and right.left.body == left:
                return right.right
        elif rule == "tsrc":
            if isinstance(left, Sym) and isinstance(right, Trans) and right.left == left.body:
                return right.right
        elif rule not in COMPLETE_RULES:
            raise OutsideFragment(f"unknown rule {rule}")
    elif rule not in COMPLETE_RULES:
        raise OutsideFragment(f"unknown rule {rule}")
    return None


def subterm(t, pos):
    for i in pos:
        kids = children(t)
        if i >= len(kids):
            return None
        t = kids[i]
    return t


def replace(t, pos, new):
    path = []
    for i in pos:
        path.append((t, i))
        t = children(t)[i]
    for parent, i in reversed(path):
        if isinstance(parent, Sym):
            new = Sym(new)
        else:
            new = Trans(new, parent.right) if i == 0 else Trans(parent.left, new)
    return new


def contract(t, rule, pos, atoms):
    """``t`` with ``rule`` applied at ``pos``, or None if it does not apply."""
    sub = subterm(t, pos)
    if sub is None:
        return None
    out = apply_rule(rule, sub, atoms)
    return None if out is None else replace(t, pos, out)


def check_steps(start, end, steps, rules_name: str, atoms) -> str | None:
    """Replay recorded steps; returns the first problem found, or None.

    Each step is ``(rule, position, direction, before, after)``. A reverse
    step holds when the rule applied to ``after`` gives ``before``.
    """
    allowed = RULES[rules_name]
    cur = start
    for i, (rule, pos, direction, before, after) in enumerate(steps):
        if rule not in allowed:
            return f"step {i}: rule {rule} is not in {rules_name}"
        if before != cur:
            return f"step {i}: does not start where the previous step ended"
        if direction == "forward":
            ok = contract(before, rule, pos, atoms) == after
        elif direction == "reverse":
            ok = contract(after, rule, pos, atoms) == before
        else:
            return f"step {i}: unknown direction {direction}"
        if not ok:
            return f"step {i}: {rule} at {pos} ({direction}) is not a contraction"
        cur = after
    if cur != end:
        return "derivation does not end at the expected term"
    return None


def first_redex(t, rules_name: str, strategy: str, atoms):
    nodes = _postorder(t) if strategy == "leftmost-innermost" else _preorder(t)
    for node, pos in nodes:
        for rule in RULES[rules_name]:
            out = apply_rule(rule, node, atoms)
            if out is not None:
                return rule, pos, out
    return None


def is_normal(t, rules_name: str, atoms) -> bool:
    return first_redex(t, rules_name, "leftmost-innermost", atoms) is None


def normalize(t, rules_name: str, strategy: str, atoms):
    """Normal form and its ``(rule, position, result)`` trace."""
    trace = []
    while True:
        found = first_redex(t, rules_name, strategy, atoms)
        if found is None:
            return t, trace
        rule, pos, out = found
        t = replace(t, pos, out)
        trace.append((rule, pos, t))


def fmt(t) -> str:
    """The term in script syntax, as pathrw prints it."""
    parts: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Atom):
            parts.append(node.name)
        elif isinstance(node, Refl):
            payload = node.obj.payload
            if isinstance(payload, str):
                parts.append(f"rho({payload})")
            else:
                parts.append("rho(")
                stack.extend((")", payload))
        elif isinstance(node, StepAtom):
            step = node.step
            pos = ".".join(map(str, step.position)) or "root"
            parts.append(f"step[{step.rule}@{pos}:{step.direction[0]}]")
        elif isinstance(node, Sym):
            parts.append("sigma(")
            stack.extend((")", node.body))
        elif isinstance(node, Trans):
            parts.append("tau(")
            stack.extend((")", node.right, ", ", node.left))
        else:
            raise OutsideFragment(f"outside the reference fragment: {type(node).__name__}")
    return "".join(parts)
