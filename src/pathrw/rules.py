"""Rewrite-rule schemas as data.

The seven redundancy-removal rules over rho/sigma/tau, pattern matching
against subterms, and a printable natural-deduction derivation for each rule.
The schemas are level-uniform: one schema rewrites terms at every tower
level, and only a step's name, built by ``step_name``, says which level it is
at. Each schema compiles its left pattern once into a matcher closure
(``RuleSchema.match``) that recurses only as deep as the pattern.

The optional "groupoid-complete" set adds three derivable rules so that
normal forms become canonical; the seven alone are not confluent. Each of
the three carries its derivation as data: a witness, the fixed sequence of
seven-rule forward and reverse steps that takes its left-hand side to its
right-hand side, each step given by the template of the whole redex after it.

``contractions`` is the one rewrite walker. It keeps the path to the current
node on an explicit stack and never rescans what it has shown normal:
innermost order walks post-order and, after a contraction, re-walks only the
nodes the right-hand side built; outermost order walks pre-order and
rechecks only the ancestors of the contracted position. A rule set finds a
node's candidate schemas by its shape, its class and, for a Trans or Sym, its
children's classes: on first use each shape gets the schemas whose left-hand
side admits it, in order (an index on the symbols near the root, as in Graf,
*Term Indexing*, 1996). Only those candidates run their matchers, which test
the rest. So a step costs O(depth) to rebuild the spine, plus per node visited
or built one shape lookup and, on the ``deep-terms`` benchmark, 0.6 matches on
average; matchers, templates and the term primitives dispatch on exact type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeAlias, Union

from .errors import PathRwError, UnknownRule
from .terms import (
    Context,
    PathTerm,
    Position,
    Refl,
    Sym,
    Trans,
    endpoints,
    level,
    path_children,
    with_child,
)


@dataclass(frozen=True, slots=True)
class PVar:
    """Pattern metavariable; matches any subterm, nonlinearly."""

    name: str


@dataclass(frozen=True, slots=True)
class PRefl:
    """Matches a reflexivity node, binding its object."""

    obj_var: str


@dataclass(frozen=True, slots=True)
class PSym:
    body: Pattern


@dataclass(frozen=True, slots=True)
class PTrans:
    left: Pattern
    right: Pattern


@dataclass(frozen=True, slots=True)
class RReflAtSource:
    """Template: reflexivity at the source of the term bound to ``var``."""

    var: str


@dataclass(frozen=True, slots=True)
class RReflAtTarget:
    """Template: reflexivity at the target of the term bound to ``var``."""

    var: str


Pattern: TypeAlias = Union[PVar, PRefl, PSym, PTrans]
Template: TypeAlias = Union[PVar, PRefl, PSym, PTrans, RReflAtSource, RReflAtTarget]

Binding: TypeAlias = "dict[str, object]"

FORWARD = "forward"
REVERSE = "reverse"


def build_template(template: Template, binding: Binding, ctx: Context) -> PathTerm:
    """Instantiate a right-hand-side template under a binding."""
    tp = type(template)
    if tp is PVar:
        return binding[template.name]
    if tp is PTrans:
        left = build_template(template.left, binding, ctx)
        return Trans(left, build_template(template.right, binding, ctx))
    if tp is PSym:
        return Sym(build_template(template.body, binding, ctx))
    if tp is PRefl:
        return Refl(binding[template.obj_var])
    if tp is RReflAtSource:
        return Refl(endpoints(binding[template.var], ctx)[0])
    if tp is RReflAtTarget:
        return Refl(endpoints(binding[template.var], ctx)[1])
    raise TypeError(f"not a template: {template!r}")


@dataclass(frozen=True, slots=True)
class RuleSchema:
    """One rewrite rule: a left pattern and a right template, at every level.

    The schema rewrites terms of every level alike; ``step_name`` names a
    step of it at a given level. ``match`` is the left pattern compiled
    once: it maps a term to the binding, or None. A derivable rule's
    ``witness`` holds its seven-rule steps as (rule, position relative to the
    redex, direction, template of the whole redex after the step); it is
    empty for the seven rules.
    """

    name: str
    lhs: Pattern
    rhs: Template
    witness: tuple[tuple[str, Position, str, Template], ...] = ()
    match: Callable[[PathTerm], Binding | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        test = _compile(self.lhs, set())

        def match(t: PathTerm) -> Binding | None:
            binding: Binding = {}
            return binding if test(t, binding) else None

        object.__setattr__(self, "match", match)

    def __reduce__(self):  # the matcher is a closure: pickle the fields, recompile on load
        return RuleSchema, (self.name, self.lhs, self.rhs, self.witness)

    @property
    def extension(self) -> bool:
        return bool(self.witness)


def step_name(name: str, lv: int) -> str:
    """The name of a step of rule ``name`` at level ``lv``: bare at level 1, suffixed from level 2 up."""
    return name if lv == 1 else f"{name}{lv}"


def _compile(pattern: Pattern, bound: set[str]) -> Callable[[PathTerm, Binding], bool]:
    """A test that ``pattern`` matches a term, filling in the binding.

    Tests run left to right and stop at the first failure, so the first
    occurrence of a metavariable binds it and a later one, already in
    ``bound`` when compiled, compares with ``==``. Node tests are exact-type.
    """
    match pattern:
        case PSym(body):
            inner = _compile(body, bound)
            return lambda t, b: type(t) is Sym and inner(t.body, b)
        case PTrans(left, right):
            first = _compile(left, bound)
            second = _compile(right, bound)
            return lambda t, b: type(t) is Trans and first(t.left, b) and second(t.right, b)
        case PRefl(obj_var):
            obj = _compile(PVar(obj_var), bound)
            return lambda t, b: type(t) is Refl and obj(t.obj, b)
        case PVar(name) if name in bound:
            return lambda t, b: b[name] == t
        case PVar(name):
            bound.add(name)
            return lambda t, b: b.setdefault(name, t) is t  # unbound here: binds t
    raise TypeError(f"not a pattern: {pattern!r}")


_HEADS = {PSym: Sym, PTrans: Trans, PRefl: Refl}


def _shape(node: PathTerm) -> tuple | type:
    """A node's key in the shape index: its class, with its children's if it is a Trans or Sym."""
    tp = type(node)
    if tp is Trans:
        return tp, type(node.left), type(node.right)
    if tp is Sym:
        return tp, type(node.body)
    return tp


def _admits(pattern: Pattern, shape: tuple | type) -> bool:
    """Whether ``pattern`` can match at a node of this shape."""
    tp, *kids = shape if type(shape) is tuple else (shape,)
    ptp = type(pattern)
    if ptp is PVar:
        return True
    if _HEADS[ptp] is not tp:
        return False
    subs = (pattern.left, pattern.right) if ptp is PTrans else (pattern.body,) if ptp is PSym else ()
    return all(_admits(p, k) for p, k in zip(subs, kids))


class _ShapeIndex(dict):
    """Shape -> the schemas whose left-hand side admits it, in rule-set order; filled on first use."""

    def __init__(self, schemas: tuple[RuleSchema, ...]) -> None:
        self.schemas = schemas

    def __missing__(self, shape: tuple | type) -> tuple[RuleSchema, ...]:
        found = self[shape] = tuple(s for s in self.schemas if _admits(s.lhs, shape))
        return found


_R, _S, _T = PVar("r"), PVar("s"), PVar("t")
_X = PRefl("x")

SR = RuleSchema("sr", PSym(_X), _X)
SS = RuleSchema("ss", PSym(PSym(_R)), _R)
TR = RuleSchema("tr", PTrans(_R, PSym(_R)), RReflAtSource("r"))
TSR = RuleSchema("tsr", PTrans(PSym(_R), _R), RReflAtTarget("r"))
TRR = RuleSchema("trr", PTrans(_R, _X), _R)
TLR = RuleSchema("tlr", PTrans(_X, _R), _R)
TT = RuleSchema("tt", PTrans(PTrans(_T, _R), _S), PTrans(_T, PTrans(_R, _S)))

# Derivable extensions: inverse distribution over composition and the two
# chain cancellations. Not independent rules; each carries its seven-rule
# witness.
_ST_LHS = PSym(PTrans(_R, _S))
ST = RuleSchema(
    "st",
    _ST_LHS,
    PTrans(PSym(_S), PSym(_R)),
    witness=(
        ("tlr", (), REVERSE, PTrans(RReflAtTarget("s"), _ST_LHS)),
        ("tsr", (0,), REVERSE, PTrans(PTrans(PSym(_S), _S), _ST_LHS)),
        ("tt", (), FORWARD, PTrans(PSym(_S), PTrans(_S, _ST_LHS))),
        ("tlr", (1,), REVERSE, PTrans(PSym(_S), PTrans(RReflAtSource("s"), PTrans(_S, _ST_LHS)))),
        ("tsr", (1, 0), REVERSE, PTrans(PSym(_S), PTrans(PTrans(PSym(_R), _R), PTrans(_S, _ST_LHS)))),
        ("tt", (1,), FORWARD, PTrans(PSym(_S), PTrans(PSym(_R), PTrans(_R, PTrans(_S, _ST_LHS))))),
        ("tt", (1, 1), REVERSE, PTrans(PSym(_S), PTrans(PSym(_R), PTrans(PTrans(_R, _S), _ST_LHS)))),
        ("tr", (1, 1), FORWARD, PTrans(PSym(_S), PTrans(PSym(_R), RReflAtSource("r")))),
        ("trr", (1,), FORWARD, PTrans(PSym(_S), PSym(_R))),
    ),
)
TRC = RuleSchema(
    "trc",
    PTrans(_R, PTrans(PSym(_R), _T)),
    _T,
    witness=(
        ("tt", (), REVERSE, PTrans(PTrans(_R, PSym(_R)), _T)),
        ("tr", (0,), FORWARD, PTrans(RReflAtSource("r"), _T)),
        ("tlr", (), FORWARD, _T),
    ),
)
TSRC = RuleSchema(
    "tsrc",
    PTrans(PSym(_R), PTrans(_R, _T)),
    _T,
    witness=(
        ("tt", (), REVERSE, PTrans(PTrans(PSym(_R), _R), _T)),
        ("tsr", (0,), FORWARD, PTrans(RReflAtTarget("r"), _T)),
        ("tlr", (), FORWARD, _T),
    ),
)


@dataclass(frozen=True, slots=True)
class RuleSet:
    """An ordered collection of rule schemas."""

    name: str
    schemas: tuple[RuleSchema, ...]
    # Derived: the schema of each name; the shape index; and the schema
    # ``find`` resolved for each (rule name, level) it has succeeded on.
    _by_name: dict = field(init=False, repr=False, compare=False)
    _index: _ShapeIndex = field(init=False, repr=False, compare=False)
    _found: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A witness records each step's rule by name, so a name picks one schema.
        by_name: dict[str, RuleSchema] = {}
        for schema in self.schemas:
            if schema.name in by_name:
                raise PathRwError(f"rule set '{self.name}' has two schemas named '{schema.name}'")
            by_name[schema.name] = schema
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_index", _ShapeIndex(self.schemas))
        object.__setattr__(self, "_found", {})

    def find(self, rule_name: str, at_level: int) -> RuleSchema:
        """The schema a step name, bare or level-suffixed (see ``step_name``), names at the given level."""
        if type(rule_name) is not str:
            raise UnknownRule(f"malformed rule name {rule_name!r}")
        schema = self._found.get((rule_name, at_level))
        if schema is not None:
            return schema
        base = rule_name.rstrip("0123456789")
        if not (base.isascii() and base.isalpha() and base.islower()):
            raise UnknownRule(f"malformed rule name '{rule_name}'")
        suffix = rule_name[len(base) :]
        if suffix and int(suffix) != at_level:
            raise UnknownRule(f"rule '{rule_name}' is pinned to level {int(suffix)}, not {at_level}")
        schema = self._by_name.get(base)
        if schema is None:
            raise UnknownRule(f"no rule named '{rule_name}' in rule set '{self.name}'")
        if at_level < 1:
            raise ValueError("levels start at 1")
        self._found[rule_name, at_level] = schema
        return schema

    def first_match(self, node: PathTerm) -> tuple[RuleSchema, Binding] | None:
        """The first schema, in rule-set order, that matches at ``node``."""
        for schema in self._index[_shape(node)]:
            binding = schema.match(node)
            if binding is not None:
                return schema, binding
        return None

    def matches(self, node: PathTerm) -> list[tuple[RuleSchema, Binding]]:
        """Every schema that matches at ``node``, in rule-set order, with its binding."""
        found = []
        for schema in self._index[_shape(node)]:
            binding = schema.match(node)
            if binding is not None:
                found.append((schema, binding))
        return found


PAPER7 = RuleSet("paper7", (SR, SS, TR, TSR, TLR, TRR, TT))
GROUPOID_COMPLETE = RuleSet("groupoid-complete", PAPER7.schemas + (ST, TRC, TSRC))

RULE_SETS = {rs.name: rs for rs in (PAPER7, GROUPOID_COMPLETE)}


def rule_set(name: str) -> RuleSet:
    try:
        return RULE_SETS[name]
    except KeyError:
        raise UnknownRule(f"no rule set named '{name}'") from None


# A walk keeps the path from the root to the current node as frames
# [node, template, children started]; ``template`` is the right-hand-side
# part that built the node in the last contraction, or None.


def _subtemplate(template: Template | None, i: int) -> Template | None:
    tp = type(template)
    if tp is PTrans:
        return template.right if i else template.left
    if tp is PSym:
        return template.body
    return None


def _position(path: list) -> Position:
    return tuple([frame[2] - 1 for frame in path[:-1]])


def _visits(path: list, innermost: bool) -> Iterator[list]:
    """Walk the subtree at the top of ``path``, yielding its frames in order.

    Innermost order yields a frame after its children (post-order), outermost
    order before them (pre-order). A consumer that replaces the top frame
    with a new one has that subtree walked afresh; a node built from a
    metavariable of an innermost contraction is already normal and skipped.
    """
    while path:
        frame = path[-1]
        node, template, i = frame
        if type(template) is PVar:
            path.pop()
            continue
        children = path_children(node)
        if i == (len(children) if innermost else 0):
            yield frame
            if path[-1] is not frame:
                continue
        if i < len(children):
            frame[2] = i + 1
            path.append([children[i], _subtemplate(template, i), 0])
        else:
            path.pop()


def redexes(rs: RuleSet, t: PathTerm) -> Iterator[tuple[RuleSchema, Binding, Position]]:
    """(schema, binding, position) per match, in ``match_redexes`` order."""
    path = [[t, None, 0]]
    for frame in _visits(path, innermost=True):
        for schema, binding in rs.matches(frame[0]):
            yield schema, binding, _position(path)


def match_redexes(rs: RuleSet, t: PathTerm) -> list[tuple[str, Position]]:
    """All (rule name, position) pairs where a schema matches, innermost first.

    Positions are enumerated leftmost-innermost; at one position the rules
    keep the rule set's order. An empty list means ``t`` is a normal form.
    Names carry the term's level (see ``step_name``).
    """
    lv = level(t)
    return [(step_name(schema.name, lv), pos) for schema, _, pos in redexes(rs, t)]


def contractions(
    t: PathTerm, rs: RuleSet, ctx: Context, strategy: str = "leftmost-innermost"
) -> Iterator[tuple[RuleSchema, Position, PathTerm, PathTerm]]:
    """Contract redexes of ``t`` in ``strategy`` order until none remains.

    Yields (schema, position, before, after) per contraction, the schema one
    of ``rs.schemas`` at every level of ``t``. Whether a node is a redex
    depends only on its subtree, so a node the walk has shown normal stays
    normal until a contraction inside its subtree.
    """
    innermost = strategy == "leftmost-innermost"
    if not innermost and strategy != "leftmost-outermost":
        raise ValueError(f"unknown strategy '{strategy}'")
    return _contract_from(t, None, rs, ctx, innermost)


def _contract_from(
    t: PathTerm, template: Template | None, rs: RuleSet, ctx: Context, innermost: bool = True
) -> Iterator[tuple[RuleSchema, Position, PathTerm, PathTerm]]:
    """``contractions`` from a root frame whose node ``template`` built.

    Innermost, the parts of ``t`` at the template's metavariables are taken
    as normal and never visited: from ``PTrans(PVar, PVar)`` only the root
    and what contracting it builds are walked.
    """
    path = [[t, template, 0]]
    for frame in _visits(path, innermost):
        found = rs.first_match(frame[0])
        while found is not None:
            schema, binding = found
            before = path[0][0]
            pos = _position(path)
            new = build_template(schema.rhs, binding, ctx)
            path[-1] = [new, schema.rhs if innermost else None, 0]
            for parent in reversed(path[:-1]):
                parent[0] = new = with_child(parent[0], parent[2] - 1, new)
            yield schema, pos, before, new
            found = None
            if not innermost:
                for k in range(len(path) - 1):
                    found = rs.first_match(path[k][0])
                    if found is not None:
                        del path[k + 1 :]
                        break


_EXPLANATIONS = {
    "sr": """\
sr: sigma(rho) |> rho

    x ={rho} x : A
    --------------------- (sigma)
    x ={sigma(rho)} x : A

  |>sr   x ={rho} x : A
""",
    "ss": """\
ss: sigma(sigma(r)) |> r

    x ={r} y : A
    --------------------- (sigma)
    y ={sigma(r)} x : A
    ---------------------------- (sigma)
    x ={sigma(sigma(r))} y : A

  |>ss   x ={r} y : A
""",
    "tr": """\
tr: tau(r, sigma(r)) |> rho

    x ={r} y : A        y ={sigma(r)} x : A
    ----------------------------------------- (tau)
    x ={tau(r, sigma(r))} x : A

  |>tr   x ={rho} x : A
""",
    "tsr": """\
tsr: tau(sigma(r), r) |> rho

    y ={sigma(r)} x : A        x ={r} y : A
    ----------------------------------------- (tau)
    y ={tau(sigma(r), r)} y : A

  |>tsr   y ={rho} y : A
""",
    "trr": """\
trr: tau(r, rho) |> r

    x ={r} y : A        y ={rho} y : A
    ------------------------------------ (tau)
    x ={tau(r, rho)} y : A

  |>trr   x ={r} y : A
""",
    "tlr": """\
tlr: tau(rho, r) |> r

    x ={rho} x : A        x ={r} y : A
    ------------------------------------ (tau)
    x ={tau(rho, r)} y : A

  |>tlr   x ={r} y : A
""",
    "tt": """\
tt: tau(tau(t, r), s) |> tau(t, tau(r, s))

    x ={t} y : A        y ={r} w : A
    ---------------------------------- (tau)
    x ={tau(t, r)} w : A                        w ={s} z : A
    --------------------------------------------------------- (tau)
    x ={tau(tau(t, r), s)} z : A

  |>tt

                        y ={r} w : A        w ={s} z : A
                        ---------------------------------- (tau)
    x ={t} y : A        y ={tau(r, s)} z : A
    ------------------------------------------------- (tau)
    x ={tau(t, tau(r, s))} z : A
""",
}


def explain_rule(name: str) -> str:
    """The natural-deduction derivation behind one of the seven rules."""
    try:
        return _EXPLANATIONS[name]
    except KeyError:
        raise UnknownRule(f"no derivation recorded for rule '{name}'") from None
