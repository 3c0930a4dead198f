"""Rewrite-rule schemas as data, and their matchers generated as code.

The seven redundancy-removal rules over rho/sigma/tau, pattern matching
against subterms, and a printable natural-deduction derivation for each rule.
The schemas are level-uniform: one schema rewrites terms at every tower
level, and only a step's name, built by ``step_name``, says which level it is
at. The optional "groupoid-complete" set adds three derivable rules so that
normal forms become canonical; the seven alone are not confluent. Each of
the three carries its derivation as data: a witness, the fixed sequence of
seven-rule forward and reverse steps that takes its left-hand side to its
right-hand side, each step given by the template of the whole redex after it.
Every template is compiled, into its schema's ``build`` and ``derive``.

A rule set compiles its schemas once into one function (Augustsson, FPCA
1985; Maranget, ML 2008). It dispatches on a node's class, tests each schema
in order by exact class and ``==``, and builds the first match's contractum
in place; ``print(PAPER7.source)`` shows it. ``contractions``, the one
rewrite walker, calls it per node visited or built and never rescans what it
has shown normal: innermost order walks post-order and re-walks only the
nodes a right-hand side built, rebuilding a parent once, when the walk
leaves a changed child; outermost order walks pre-order and rechecks only
the ancestors of the contracted position, rebuilding them. It returns the
normal form with each contraction's redex and contractum, not whole terms.
The walkers, and ``redexes``, take children by exact type inline and keep
the walked node's position as a list of child indices beside its ancestors;
a contraction's position is that list made a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeAlias, Union

from .errors import PathRwError, UnknownRule
from .terms import (
    Atom,
    Context,
    Mu,
    Nu,
    PathTerm,
    Position,
    Refl,
    Sym,
    Trans,
    Xi,
    checked_level,
    endpoints,
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
# The walker's orders; the first is the default everywhere.
STRATEGIES = ("leftmost-innermost", "leftmost-outermost")


@dataclass(frozen=True, slots=True)
class RuleSchema:
    """One rewrite rule: a left pattern and a right template, at every level.

    The schema rewrites terms of every level alike; ``step_name`` names a
    step of it at a given level. A derivable rule's ``witness`` holds its
    seven-rule steps as (rule, position relative to the redex, direction,
    template of the whole redex after the step). Built, a schema rejects a
    bad template and generates ``match(t)``, a fresh binding or None,
    ``contract(t, ctx)``, the contractum or None, ``build(binding, ctx)``, the
    right-hand side, and ``derive(binding, ctx)``, the redex after each step.
    """

    name: str
    lhs: Pattern
    rhs: Template
    witness: tuple[tuple[str, Position, str, Template], ...] = ()
    match: Callable[[PathTerm], Binding | None] = field(init=False, repr=False, compare=False)
    contract: Callable[[PathTerm, Context], PathTerm | None] = field(init=False, repr=False, compare=False)
    build: Callable[[Binding, Context], PathTerm] = field(init=False, repr=False, compare=False)
    derive: Callable[[Binding, Context], list[PathTerm]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bound: dict[str, str] = {}
        _tests(self.lhs, "node", [], bound)  # the metavariables a template may name
        at = {name: f"binding[{name!r}]" for name in bound}
        steps = ", ".join(_built(template, at) for *_, template in self.witness)
        fns = _generate(f"rule {self.name!r}", (self,), _SCHEMA_FUNCTIONS)[1]
        fns += eval(f"lambda binding, ctx: {_built(self.rhs, at)}, lambda binding, ctx: [{steps}]", globals())
        for name, fn in zip(("match", "contract", "build", "derive"), fns):
            object.__setattr__(self, name, fn)

    def __reduce__(self):  # the matchers are generated: pickle the fields, generate them again on load
        return RuleSchema, (self.name, self.lhs, self.rhs, self.witness)


def step_name(name: str, lv: int) -> str:
    """The name of a step of rule ``name`` at level ``lv``: bare at level 1, suffixed from level 2 up."""
    return name if lv == 1 else f"{name}{lv}"


# A generated function: (signature, statement per match, what it returns
# after the last schema). The statement is formatted with the schema's index
# k, its ``binding`` and its ``contractum`` built in place.
_SCHEMA_FUNCTIONS = (("match(node)", "return {binding}", None), ("contract(node, ctx)", "return {contractum}", None))
_SET_FUNCTIONS = (
    ("contract(node, ctx)", "return s{k}, {contractum}", None),
    ("matches(node)", "found.append((s{k}, {binding}))", "found"),
)
_HEADS = {PTrans: "Trans", PSym: "Sym", PRefl: "Refl"}
_FIELDS = {PTrans: ("left", "right"), PSym: ("body",), PRefl: ()}
# A branch names the root's children x0 and x1 and their classes t0 and t1.
_PREAMBLE = {"Trans": ["x0 = node.left", "x1 = node.right", "t0 = type(x0)", "t1 = type(x1)"]}
_PREAMBLE["Sym"] = ["x0 = node.body", "t0 = type(x0)"]


def _tests(pattern: Pattern, at: str, tests: list[str], bound: dict[str, str]) -> None:
    """Add the tests, left to right, that ``pattern`` matches the term at expression ``at``.

    The root's class is its branch's; class tests are exact. ``bound`` maps each
    metavariable to the expression of its first occurrence; a later one, ``y``, must
    be it, or of its class and ``==`` to it, the first on the left: on terms that is
    ``==``, without the reflected call that ``==`` makes across classes.
    """
    tp = type(pattern)
    if tp is PVar:
        if at == "node":  # it would match every term: no rewrite system has such a rule
            raise PathRwError(f"a left-hand side must not be a metavariable: {pattern!r}")
        first = bound.setdefault(pattern.name, at)
        if first != at:
            cls = f"t{first[1]}" if first in ("x0", "x1") else f"type({first})"
            tests.append(f"((y := {at}) is {first} or type(y) is {cls} and {first} == y)")
        return
    if tp not in _HEADS:
        raise TypeError(f"not a pattern: {pattern!r}")
    if at != "node":
        tests.append(f"{f't{at[1]}' if at in ('x0', 'x1') else f'type({at})'} is {_HEADS[tp]}")
    if tp is PRefl:
        _tests(PVar(pattern.obj_var), f"{at}.obj", tests, bound)
    for i, name in enumerate(_FIELDS[tp]):
        _tests(getattr(pattern, name), f"x{i}" if at == "node" else f"{at}.{name}", tests, bound)


def _built(template: Template, bound: dict[str, str]) -> str:
    """An expression that builds ``template`` over the expressions in ``bound``; a KeyError if a metavariable is unbound."""
    tp = type(template)
    if tp is PVar:
        return bound[template.name]
    if tp is PTrans:
        return f"Trans({_built(template.left, bound)}, {_built(template.right, bound)})"
    if tp is PSym:
        return f"Sym({_built(template.body, bound)})"
    if tp is PRefl:
        return f"Refl({bound[template.obj_var]})"
    if tp is RReflAtSource or tp is RReflAtTarget:  # a declared atom's ends are its declaration's
        r = bound[template.var]
        ends = f"(d.ends if type({r}) is Atom and (d := ctx.atoms.get({r}.name)) is not None else endpoints({r}, ctx))"
        return f"Refl({ends}[{int(tp is RReflAtTarget)}])"
    raise TypeError(f"not a template: {template!r}")


def _generate(title: str, schemas, functions) -> tuple[str, tuple]:
    """The source of ``bind(s0, s1, ...)`` and the ``functions`` it returns, run with this module's globals.

    Each function has a branch per class at a left-hand side's root, which tests its schemas in order.
    """
    lines = [f"def bind({', '.join(f's{k}' for k in range(len(schemas)))}):"]
    lines.append(f"    # {title}: " + ", ".join(f"s{k} {s.name}" for k, s in enumerate(schemas)))
    for signature, on_match, fail in functions:
        lines += [f"    def {signature}:", *([f"        {fail} = []"] if fail else []), "        tp = type(node)"]
        for head in dict.fromkeys(_HEADS.get(type(s.lhs)) for s in schemas):
            lines += [f"        if tp is {head}:", *(f"            {line}" for line in _PREAMBLE.get(head, ()))]
            for k, s in enumerate(schemas):
                if _HEADS.get(type(s.lhs)) == head:
                    tests, bound = [], {}
                    _tests(s.lhs, "node", tests, bound)
                    binding = "{" + ", ".join(f"{name!r}: {at}" for name, at in bound.items()) + "}"
                    act = on_match.format(k=k, binding=binding, contractum=_built(s.rhs, bound))
                    lines += [f"            if {' and '.join(tests) or True}:  # {s.name}", f"                {act}"]
            lines.append(f"            return {fail}")
        lines.append(f"        return {fail}")
    lines.append("    return " + ", ".join(signature.split("(")[0] for signature, _, _ in functions))
    source = "\n".join(lines) + "\n"
    namespace: dict = {}
    exec(source, globals(), namespace)
    return source, namespace["bind"](*schemas)


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
    """An ordered collection of rule schemas, with its matchers generated as one function each.

    ``contract(node, ctx)`` gives the first schema, in order, that matches at
    ``node``, with the contractum built in place, or None. ``matches(node)``
    gives every schema that matches, in order, each with a fresh binding.
    ``source`` is their generated Python source: ``print(PAPER7.source)``.
    """

    name: str
    schemas: tuple[RuleSchema, ...]
    # Derived: the schema of each name, of each (name, level) ``find`` resolved, and the generated code.
    _by_name: dict = field(init=False, repr=False, compare=False)
    _found: dict = field(init=False, repr=False, compare=False)
    source: str = field(init=False, repr=False, compare=False)
    contract: Callable[[PathTerm, Context], tuple | None] = field(init=False, repr=False, compare=False)
    matches: Callable[[PathTerm], list[tuple[RuleSchema, Binding]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A witness records each step's rule by name, so a name picks one schema.
        by_name: dict[str, RuleSchema] = {}
        for schema in self.schemas:
            if schema.name in by_name:
                raise PathRwError(f"rule set '{self.name}' has two schemas named '{schema.name}'")
            by_name[schema.name] = schema
        source, (contract, matches) = _generate(f"rule set {self.name!r}", self.schemas, _SET_FUNCTIONS)
        derived = dict(_by_name=by_name, _found={}, source=source, contract=contract, matches=matches)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):  # the matchers are generated: pickle the fields, generate them again on load
        return RuleSet, (self.name, self.schemas)

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


PAPER7 = RuleSet("paper7", (SR, SS, TR, TSR, TLR, TRR, TT))
GROUPOID_COMPLETE = RuleSet("groupoid-complete", PAPER7.schemas + (ST, TRC, TSRC))

RULE_SETS = {rs.name: rs for rs in (PAPER7, GROUPOID_COMPLETE)}


def rule_set(name: str) -> RuleSet:
    try:
        return RULE_SETS[name]
    except KeyError:
        raise UnknownRule(f"no rule set named '{name}'") from None


# A walk keeps the focus's ancestors on a stack, from the root down, and
# beside it ``ix``, the focus's child index under each, so a contraction's
# position is ``tuple(ix)``.


def redexes(rs: RuleSet, t: PathTerm) -> list[tuple[RuleSchema, Binding, Position]]:
    """(schema, binding, position) per match, in ``match_redexes`` order: a post-order walk."""
    matches = rs.matches
    found = []
    path: list[PathTerm] = []
    ix: list[int] = []
    while True:
        tp = type(t)
        if tp is Trans or tp is Sym or tp is Xi or tp is Mu or tp is Nu:
            path.append(t)
            ix.append(0)
            t = t.left if tp is Trans else t.body
            continue
        while True:  # t's subtree is walked: report t, then go on to its right sibling or its parent
            for schema, binding in matches(t):
                found.append((schema, binding, tuple(ix)))
            if not path:
                return found
            parent = path[-1]
            if ix[-1] == 0 and type(parent) is Trans:
                ix[-1] = 1
                t = parent.right
                break
            path.pop()
            ix.pop()
            t = parent


def match_redexes(rs: RuleSet, t: PathTerm) -> list[tuple[str, Position]]:
    """All (rule name, position) pairs where a schema matches, innermost first.

    Positions are enumerated leftmost-innermost; at one position the rules
    keep the rule set's order. An empty list means ``t`` is a normal form.
    Names carry the term's level (see ``step_name``); an object below level 0
    at the leftmost leaf is a ``BadObject``.
    """
    lv = checked_level(t)
    return [(step_name(schema.name, lv), pos) for schema, _, pos in redexes(rs, t)]


def contractions(t: PathTerm, rs: RuleSet, ctx: Context, strategy: str = STRATEGIES[0]) -> tuple[PathTerm, list]:
    """Contract redexes of ``t`` in ``strategy`` order until none remains.

    Returns the normal form and, in order, (schema, position, redex,
    contractum) per contraction, the schema one of ``rs.schemas`` at every
    level of ``t``. Whether a node is a redex depends only on its subtree, so
    a node the walk has shown normal stays normal until a contraction inside
    its subtree. A strategy not in ``STRATEGIES`` is a ``PathRwError``.
    """
    if strategy == STRATEGIES[0]:
        return _innermost(t, None, rs, ctx)
    if strategy == STRATEGIES[1]:
        return _outermost(t, rs, ctx)
    raise PathRwError(f"unknown strategy '{strategy}'")


def _innermost(t: PathTerm, template: Template | None, rs: RuleSet, ctx: Context) -> tuple[PathTerm, list]:
    """Innermost ``contractions`` from a root that ``template`` built.

    The walk is post-order. Beside each ancestor of the focus it keeps the
    template that built it; a child's template is that template's field
    there, if the template has the child's class. A contraction replaces the
    focus, which is then walked afresh. A parent is rebuilt once, when the
    walk leaves a child that is no longer the parent's own: a contractum is
    a fresh node or a proper subterm of its redex, so never the node first
    found there. The parts of a contractum at the template's metavariables
    are normal and never visited: from ``PTrans(PVar, PVar)`` only the root
    and what contracting it builds are walked.
    """
    contract = rs.contract
    fired = []
    path: list[tuple[PathTerm, Template | None]] = []
    ix: list[int] = []
    while True:
        tp = type(t)
        if (tp is Trans or tp is Sym or tp is Xi or tp is Mu or tp is Nu) and type(template) is not PVar:
            path.append((t, template))
            ix.append(0)
            if tp is Trans:
                t, template = t.left, template.left if type(template) is PTrans else None
            else:
                t, template = t.body, template.body if type(template) is PSym else None
            continue
        while True:  # t's children are normal: contract t, or go on to its right sibling or its parent
            if type(template) is not PVar:
                found = contract(t, ctx)
                if found is not None:
                    schema, new = found
                    fired.append((schema, tuple(ix), t, new))
                    t, template = new, schema.rhs
                    break
            if not path:
                return t, fired
            parent, template = path[-1]
            if type(parent) is Trans:
                if ix[-1] == 0:
                    if parent.left is not t:
                        parent = Trans(t, parent.right)
                        path[-1] = parent, template
                    ix[-1] = 1
                    t, template = parent.right, template.right if type(template) is PTrans else None
                    break
                if parent.right is not t:
                    parent = Trans(parent.left, t)
            elif parent.body is not t:
                parent = with_child(parent, 0, t)
            path.pop()
            ix.pop()
            t = parent


def _outermost(t: PathTerm, rs: RuleSet, ctx: Context) -> tuple[PathTerm, list]:
    """Outermost ``contractions``: pre-order, checking each node when first reached.

    After a contraction every ancestor is rebuilt, since each is rechecked,
    outermost first; the walk goes on from the first one that matches, or
    else from the contractum.
    """
    contract = rs.contract
    fired = []
    path: list[PathTerm] = []
    ix: list[int] = []
    while True:
        found = contract(t, ctx)
        while found is not None:
            schema, new = found
            fired.append((schema, tuple(ix), t, new))
            t = new
            for k in reversed(range(len(path))):
                parent = path[k]
                if type(parent) is Trans:
                    new = Trans(parent.left, new) if ix[k] else Trans(new, parent.right)
                else:
                    new = with_child(parent, 0, new)
                path[k] = new
            for k, node in enumerate(path):
                found = contract(node, ctx)
                if found is not None:
                    t = node
                    del path[k:], ix[k:]
                    break
            else:
                found = contract(t, ctx)
        tp = type(t)
        if tp is Trans or tp is Sym or tp is Xi or tp is Mu or tp is Nu:
            path.append(t)
            ix.append(0)
            t = t.left if tp is Trans else t.body
            continue
        while path:  # t's subtree is normal: go on to its right sibling, or climb
            parent = path[-1]
            if ix[-1] == 0 and type(parent) is Trans:
                ix[-1] = 1
                t = parent.right
                break
            path.pop()
            ix.pop()
            t = parent
        else:
            return t, fired


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
