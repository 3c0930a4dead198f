"""Script front-end for the path DSL.

Line-oriented declarations build a context and named paths:

    type A
    elem a b : A
    lam m := \\x. x
    step r : a = b [beta|eta|alpha]
    path p := tau(r, sigma(r))
    -- whole-line comment

Path expressions use ASCII keywords tau/sigma/rho/xi/mu/nu; the Greek
letters are accepted as aliases. Every error carries a line and column.

Each line costs two regex passes: one proves that it holds no stray
character, one returns its token texts. Only an error rescans the line,
with ``_tokenize_line``, to locate its token. Path expressions are parsed
on an explicit stack that carries each subterm's endpoints upward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    DslSyntaxError,
    NotAnAxiomInstance,
    PathRwError,
    TypeMismatch,
    UndeclaredName,
)
from .lam import Abs, App, LambdaTerm, Var, validate_axiom_atom
from .terms import (
    Atom, AtomDecl, Context, Mu, Nu, Object, PathTerm, Refl, Sym, Trans, Xi,
    applied_lambda, endpoints, former_endpoints, path_obj,
)

_ALIASES = {
    "τ": "tau",
    "σ": "sigma",
    "ρ": "rho",
    "ξ": "xi",
    "μ": "mu",
    "ν": "nu",
    "υ": "nu",  # upsilon and nu both name the right-application former
    "λ": "\\",
}
_KINDS = {":=": "assign", "\\": "lambda", "λ": "lambda", **dict.fromkeys("():,=.[]", "punct")}

# Matches the longest prefix of a line that holds no stray character: each
# character is whitespace or can start a token, or is a digit or prime that
# continues a name.
_CLEAN_RE = re.compile(r"(?:[\s():,=.\[\]A-Za-z_\\λτσρξμνυ]|(?<=[A-Za-z0-9_'])[0-9'])*")
# On a line without stray characters, the token texts in order.
_TOKEN_TEXT_RE = re.compile(r":=|[A-Za-z_][A-Za-z0-9_']*|\S")
# Spells each alias out. The spaces keep a Greek keyword one token, so token
# indices stay those of ``_tokenize_line``.
_ASCII = str.maketrans({c: f" {name} " if name.isalpha() else name for c, name in _ALIASES.items()})
# Token texts that are not names; "" closes every token list, as "end" does.
_NOT_NAMES = frozenset(_KINDS) | {""}

# Frame codes; a tau's frame becomes _TAU_RIGHT once its left operand is read.
_TAU, _SIGMA, _RHO, _XI, _MU, _NU, _TAU_RIGHT = range(7)
_FORMERS = {"tau": _TAU, "sigma": _SIGMA, "rho": _RHO, "xi": _XI, "mu": _MU, "nu": _NU}


class Token(NamedTuple):
    kind: str  # "name", "punct", "assign", "lambda"; "end" closes every line
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    """The line's tokens, closed by an "end" token at the column just past its last character."""
    stray = _CLEAN_RE.match(text).end()
    if stray < len(text):
        raise DslSyntaxError(f"unexpected character {text[stray]!r}", line_no, stray + 1)
    tokens = []
    for m in _TOKEN_TEXT_RE.finditer(text):
        value = m[0]
        tokens.append(Token(_KINDS.get(value, "name"), _ALIASES.get(value, value), line_no, m.start() + 1))
    tokens.append(Token("end", "", line_no, len(text.rstrip()) + 1))
    return tokens


def _token_texts(text: str, line_no: int) -> list[str]:
    """The texts of ``_tokenize_line``'s tokens, with aliases spelled out and "" for "end"."""
    if _CLEAN_RE.fullmatch(text) is None:
        _tokenize_line(text, line_no)  # raises at the first stray character
    if not text.isascii():
        text = text.translate(_ASCII)
    texts = _TOKEN_TEXT_RE.findall(text)
    texts.append("")
    return texts


@dataclass(frozen=True, slots=True)
class Script:
    """A parsed script: the declared context plus its named paths."""

    context: Context
    paths: dict[str, PathTerm] = field(default_factory=dict)


def parse_script(text: str) -> Script:
    """Parse a whole script; see the module docstring for the grammar."""
    if not isinstance(text, str):
        raise TypeError(f"not script text: {text!r}")
    parser = _Parser(Context(), {})
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("--"):
            continue
        parser.line, parser.line_no = line, line_no
        parser.declaration(_token_texts(line, line_no))
    parser.context.check()
    return Script(parser.context, parser.paths)


class _Parser:
    """Parses one line's token texts at a time; ``toks[i]`` is the i-th token's text."""

    def __init__(self, context: Context, paths: dict[str, PathTerm], line: str = "", line_no: int = 0) -> None:
        self.context = context
        self.paths = paths
        self.line, self.line_no = line, line_no  # the line being parsed, for error locations
        # The term and endpoints of each step or path name and of each rho(element),
        # built once per parse; so chained endpoints are mostly one object.
        self.leaves: dict[str, tuple[PathTerm, tuple[Object, Object]]] = {}
        self.refls: dict[str, tuple[PathTerm, tuple[Object, Object]]] = {}

    # -- errors: only here is the line tokenized with columns -------------

    def _token(self, i: int) -> Token:
        return _tokenize_line(self.line, self.line_no)[i]

    def _at(self, i: int) -> tuple[int, int]:
        token = self._token(i)
        return token.line, token.col

    def _expected(self, what: str, i: int) -> DslSyntaxError:
        token = self._token(i)
        got = "" if token.kind == "end" else f", got {token.text!r}"
        return DslSyntaxError(f"expected {what}{got}", token.line, token.col)

    def _name(self, toks: list[str], i: int, what: str) -> str:
        text = toks[i]
        if text in _NOT_NAMES:
            raise self._expected(what, i)
        return text

    def _expect(self, toks: list[str], i: int, text: str, what: str | None = None) -> None:
        if toks[i] != text:
            raise self._expected(what or f"'{text}'", i)

    def _end(self, toks: list[str], i: int) -> None:
        if toks[i]:
            token = self._token(i)
            raise DslSyntaxError(f"unexpected trailing {token.text!r}", token.line, token.col)

    # -- declarations --------------------------------------------------

    def declaration(self, toks: list[str]) -> None:
        head = toks[0]
        if head in _NOT_NAMES:
            raise self._expected("a declaration", 0)  # never "end": the line is not blank
        handler = getattr(self, "_decl_" + head, None)
        if handler is None:
            message = f"unknown declaration '{head}' (expected type/elem/lam/step/path)"
            raise DslSyntaxError(message, *self._at(0))
        handler(toks)

    def _fresh(self, toks: list[str], i: int, what: str | None = None) -> str:
        """The name at ``i``, which no declaration may have taken; ``what`` checks that it is one."""
        name = self._name(toks, i, what) if what else toks[i]
        ctx = self.context
        if name in ctx.elements or name in ctx.atoms or name in ctx.base_types or name in self.paths:
            raise DslSyntaxError(f"name '{name}' is already declared", *self._at(i))
        return name

    def _decl_type(self, toks: list[str]) -> None:
        end = len(toks) - 1
        for i in range(1, max(end, 2)):
            self._name(toks, i, "type name")
        names = [self._fresh(toks, i) for i in range(1, end)]
        ctx = self.context
        self.context = Context(ctx.base_types + tuple(names), ctx.elements, ctx.lambda_elements, ctx.atoms)

    def _decl_elem(self, toks: list[str]) -> None:
        i = 1
        while toks[i] != ":":
            self._name(toks, i, "element name")
            i += 1
        type_name = self._name(toks, i + 1, "type name")
        self._end(toks, i + 2)
        if type_name not in self.context.base_types:
            raise UndeclaredName(f"unknown type '{type_name}'", *self._at(i + 1))
        if i == 1:
            raise DslSyntaxError("expected at least one element name", *self._at(i + 1))
        for j in range(1, i):
            self.context.elements[self._fresh(toks, j)] = type_name

    def _decl_lam(self, toks: list[str]) -> None:
        name = self._name(toks, 1, "element name")
        if name not in self.context.elements:
            raise UndeclaredName(f"'{name}' must be declared with elem before lam", *self._at(1))
        self._expect(toks, 2, ":=", ":=")
        value, i = self._lambda_expr(toks, 3)
        self._end(toks, i)
        self.context.lambda_elements[name] = value

    def _decl_step(self, toks: list[str]) -> None:
        name = self._fresh(toks, 1, "step name")
        self._expect(toks, 2, ":")
        src = self._name(toks, 3, "source element")
        self._expect(toks, 4, "=")
        tgt = self._name(toks, 5, "target element")
        tag = "declared"
        if toks[6]:
            tag = self._name(toks, 6, "axiom tag")
            if tag not in ("beta", "eta", "alpha"):
                raise DslSyntaxError(f"unknown axiom tag '{tag}'", *self._at(6))
            self._end(toks, 7)
        elements = self.context.elements
        for i in (3, 5):
            if toks[i] not in elements:
                raise UndeclaredName(f"unknown element '{toks[i]}'", *self._at(i))
        src_type = elements[src]
        tgt_type = elements[tgt]
        if src_type != tgt_type:
            raise TypeMismatch(
                f"step endpoints have different types: {src_type} and {tgt_type}", *self._at(1)
            )
        decl = AtomDecl(src, tgt, src_type, tag)
        if tag != "declared":
            try:
                validate_axiom_atom(decl, self.context)
            except NotAnAxiomInstance as exc:
                raise TypeMismatch(str(exc), *self._at(1)) from None
        self.context.atoms[name] = decl

    def _decl_path(self, toks: list[str]) -> None:
        name = self._fresh(toks, 1, "path name")
        self._expect(toks, 2, ":=", ":=")
        term, ends, i = self._path_expr(toks, 3)
        self._end(toks, i)
        self.paths[name] = term
        self.leaves[name] = term, ends

    # -- expressions ---------------------------------------------------

    def _path_expr(self, toks: list[str], i: int) -> tuple[PathTerm, tuple[Object, Object], int]:
        """The path expression at token ``i``, its endpoints, and the index just past it.

        Each open former is a frame: its code, the index of its keyword, and
        what it has read so far (a xi's variable, a mu's function, or a tau's
        left term with its endpoints).
        """
        leaf_of = self.leaves.get
        former_of = _FORMERS.get
        elements = self.context.elements
        stack: list[tuple] = []
        push = stack.append
        while True:
            text = toks[i]
            former = former_of(text)
            if former is None:
                term, ends = leaf_of(text) or self._leaf(toks, i)
                i += 1
            elif toks[i + 1] != "(":
                raise self._expected("'('", i + 1)
            elif former == _XI or former == _MU:
                if former == _XI:
                    operand = self._name(toks, i + 2, "bound variable")
                else:
                    operand = self._lambda_element(toks, i + 2)
                if toks[i + 3] != ",":
                    raise self._expected("','", i + 3)
                push((former, i, operand))
                i += 4
                continue
            elif former == _RHO and toks[i + 2] in elements and toks[i + 2] not in _NOT_NAMES:
                if toks[i + 3] != ")":
                    raise self._expected("')'", i + 3)
                term, ends = self._refl(toks[i + 2])
                i += 4
            else:
                push((former, i))
                i += 2
                continue
            # Close every former that ``term`` completes; stop at a tau whose
            # right operand comes next.
            while stack:
                frame = stack[-1]
                former = frame[0]
                if former == _SIGMA:
                    if toks[i] != ")":
                        raise self._expected("')'", i)
                    term, ends = Sym(term), (ends[1], ends[0])
                elif former == _TAU:
                    if toks[i] != ",":
                        raise self._expected("','", i)
                    stack[-1] = (_TAU_RIGHT, frame[1], term, ends)
                    i += 1
                    break
                elif former == _TAU_RIGHT:
                    if toks[i] != ")":
                        raise self._expected("')'", i)
                    src, tgt = frame[3]
                    if tgt is not ends[0] and tgt != ends[0]:
                        raise TypeMismatch(
                            "cannot chain: left path ends where the right one does not start",
                            *self._at(frame[1]),
                        )
                    term, ends = Trans(frame[2], term), (src, ends[1])
                else:
                    term, ends, i = self._close(frame, term, ends, toks, i)
                i += 1
                stack.pop()
            else:
                return term, ends, i

    def _close(self, frame: tuple, body: PathTerm, ends: tuple[Object, Object], toks: list[str], i: int):
        """Close a rho, xi, mu or nu around ``body``; ``i`` ends at its closing parenthesis."""
        ctx = self.context
        former = frame[0]
        if former == _NU:
            if toks[i] != ",":
                raise self._expected("','", i)
            arg = self._lambda_element(toks, i + 1)
            i += 2
        if toks[i] != ")":
            raise self._expected("')'", i)
        if former == _RHO:
            obj = path_obj(body)
            return Refl(obj), (obj, obj), i
        term = Xi(frame[2], body) if former == _XI else Mu(frame[2], body) if former == _MU else Nu(body, arg)
        try:
            return term, former_endpoints(term, applied_lambda(term, ctx), ends, ctx), i
        except PathRwError as exc:
            raise TypeMismatch(str(exc), *self._at(frame[1])) from None

    def _leaf(self, toks: list[str], i: int) -> tuple[PathTerm, tuple[Object, Object]]:
        """A step or path name's term and endpoints, on first sight in this parse."""
        name = self._name(toks, i, "path expression")
        ctx = self.context
        if name in ctx.atoms:
            decl = ctx.atoms[name]
            leaf = Atom(name), (self._refl(decl.source)[1][0], self._refl(decl.target)[1][0])
        elif name in self.paths:
            term = self.paths[name]
            leaf = term, endpoints(term, ctx)
        elif name in ctx.elements:
            raise TypeMismatch(
                f"'{name}' is an element; write rho({name}) for its trivial path", *self._at(i)
            )
        else:
            raise UndeclaredName(f"unknown path or step '{name}'", *self._at(i))
        self.leaves[name] = leaf
        return leaf

    def _refl(self, name: str) -> tuple[PathTerm, tuple[Object, Object]]:
        leaf = self.refls.get(name)
        if leaf is None:
            obj = Object(0, name)
            leaf = self.refls[name] = Refl(obj), (obj, obj)
        return leaf

    def _lambda_element(self, toks: list[str], i: int) -> str:
        name = self._name(toks, i, "lambda element")
        if name not in self.context.elements:
            raise UndeclaredName(f"unknown element '{name}'", *self._at(i))
        if name not in self.context.lambda_elements:
            raise TypeMismatch(f"element '{name}' has no lambda value", *self._at(i))
        return name

    def _lambda_expr(self, toks: list[str], i: int) -> tuple[LambdaTerm, int]:
        if toks[i] == "\\":
            var = self._name(toks, i + 1, "bound variable")
            self._expect(toks, i + 2, ".")
            body, i = self._lambda_expr(toks, i + 3)
            return Abs(var, body), i
        term, i = self._lambda_atom(toks, i)
        while True:
            text = toks[i]
            if text == "\\":
                arg, i = self._lambda_expr(toks, i)
                return App(term, arg), i
            if text != "(" and text in _NOT_NAMES:
                return term, i
            arg, i = self._lambda_atom(toks, i)
            term = App(term, arg)

    def _lambda_atom(self, toks: list[str], i: int) -> tuple[LambdaTerm, int]:
        if toks[i] == "(":
            inner, i = self._lambda_expr(toks, i + 1)
            self._expect(toks, i, ")")
            return inner, i + 1
        return Var(self._name(toks, i, "lambda term")), i + 1


def parse_path_expr(text: str, ctx: Context, paths: dict[str, PathTerm] | None = None, line: int = 1) -> PathTerm:
    """Parse a single path expression against an existing context."""
    parser, toks = _Parser(ctx, paths or {}, text, line), _token_texts(text, line)
    term, _, i = parser._path_expr(toks, 0)
    parser._end(toks, i)
    return term


def parse_lambda_expr(text: str, line: int = 1) -> LambdaTerm:
    """Parse a single lambda expression."""
    parser, toks = _Parser(Context(), {}, text, line), _token_texts(text, line)
    term, i = parser._lambda_expr(toks, 0)
    parser._end(toks, i)
    return term
