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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    DslSyntaxError,
    NotAnAxiomInstance,
    TypeMismatch,
    UndeclaredName,
)
from .lam import Abs, App, LambdaTerm, Var, validate_axiom_atom
from .terms import (
    Atom,
    AtomDecl,
    Context,
    Mu,
    Nu,
    Object,
    PathTerm,
    Refl,
    Sym,
    Trans,
    Xi,
    endpoints,
    path_obj,
)
from . import errors as _errors

_KEYWORD_ALIASES = {
    "τ": "tau",
    "σ": "sigma",
    "ρ": "rho",
    "ξ": "xi",
    "μ": "mu",
    "ν": "nu",
    "υ": "nu",  # upsilon and nu both name the right-application former
}

# Each match is one token: optional whitespace, then exactly one group. A
# character that starts no token is caught by the last group.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<assign>:=)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<greek>[τσρξμνυ])
    | (?P<lambda>[\\λ])
    | (?P<punct>[():,=.\[\]])
    | (?P<stray>\S)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "name", "punct", "assign", "lambda"; "end" closes a _TokenStream
    text: str
    line: int
    col: int


_new_token = tuple.__new__  # builds a Token without the Python frame of Token.__new__


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        col = m.start(kind) + 1
        if kind == "greek":
            kind, value = "name", _KEYWORD_ALIASES[value]
        elif kind == "lambda":
            value = "\\"
        elif kind == "stray":
            raise DslSyntaxError(f"unexpected character {value!r}", line_no, col)
        tokens.append(_new_token(Token, (kind, value, line_no, col)))
    return tokens


@dataclass(frozen=True, slots=True)
class Script:
    """A parsed script: the declared context plus its named paths."""

    context: Context
    paths: dict[str, PathTerm] = field(default_factory=dict)


def parse_script(text: str) -> Script:
    """Parse a whole script; see the module docstring for the grammar."""
    parser = _ScriptParser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("--"):
            continue
        parser.declaration(_tokenize_line(line, line_no))
    parser.context.check()
    return Script(parser.context, parser.paths)


class _ScriptParser:
    def __init__(self) -> None:
        self.context = Context(base_types=(), elements={}, lambda_elements={}, atoms={})
        self.paths: dict[str, PathTerm] = {}

    # -- declarations --------------------------------------------------

    def declaration(self, tokens: list[Token]) -> None:
        head = tokens[0]
        if head.kind != "name":
            raise DslSyntaxError(f"expected a declaration, got {head.text!r}", head.line, head.col)
        handler = {
            "type": self._decl_type,
            "elem": self._decl_elem,
            "lam": self._decl_lam,
            "step": self._decl_step,
            "path": self._decl_path,
        }.get(head.text)
        if handler is None:
            raise DslSyntaxError(
                f"unknown declaration '{head.text}' (expected type/elem/lam/step/path)",
                head.line,
                head.col,
            )
        handler(_TokenStream(tokens[1:], head.line))

    def _fresh(self, token: Token) -> str:
        name = token.text
        ctx = self.context
        if name in ctx.elements or name in ctx.atoms or name in ctx.base_types or name in self.paths:
            raise DslSyntaxError(f"name '{name}' is already declared", token.line, token.col)
        return name

    def _decl_type(self, ts: _TokenStream) -> None:
        names = [self._fresh(t) for t in ts.names_until_end("type name")]
        ctx = self.context
        self.context = Context(
            ctx.base_types + tuple(names), ctx.elements, ctx.lambda_elements, ctx.atoms
        )

    def _decl_elem(self, ts: _TokenStream) -> None:
        name_tokens = []
        while not ts.peek_is(":"):
            name_tokens.append(ts.expect_name("element name"))
        ts.expect(":")
        type_token = ts.expect_name("type name")
        ts.end()
        if type_token.text not in self.context.base_types:
            raise UndeclaredName(f"unknown type '{type_token.text}'", type_token.line, type_token.col)
        if not name_tokens:
            raise DslSyntaxError("expected at least one element name", type_token.line, type_token.col)
        for token in name_tokens:
            self.context.elements[self._fresh(token)] = type_token.text

    def _decl_lam(self, ts: _TokenStream) -> None:
        name_token = ts.expect_name("element name")
        if name_token.text not in self.context.elements:
            raise UndeclaredName(
                f"'{name_token.text}' must be declared with elem before lam",
                name_token.line,
                name_token.col,
            )
        ts.expect(":=", ":=")
        value = self._lambda_expr(ts)
        ts.end()
        self.context.lambda_elements[name_token.text] = value

    def _decl_step(self, ts: _TokenStream) -> None:
        name_token = ts.expect_name("step name")
        name = self._fresh(name_token)
        ts.expect(":")
        src = ts.expect_name("source element")
        ts.expect("=")
        tgt = ts.expect_name("target element")
        tag = "declared"
        if not ts.at_end():
            tag_token = ts.expect_name("axiom tag")
            if tag_token.text not in ("beta", "eta", "alpha"):
                raise DslSyntaxError(
                    f"unknown axiom tag '{tag_token.text}'", tag_token.line, tag_token.col
                )
            tag = tag_token.text
            ts.end()
        for token in (src, tgt):
            if token.text not in self.context.elements:
                raise UndeclaredName(f"unknown element '{token.text}'", token.line, token.col)
        src_type = self.context.elements[src.text]
        tgt_type = self.context.elements[tgt.text]
        if src_type != tgt_type:
            raise TypeMismatch(
                f"step endpoints have different types: {src_type} and {tgt_type}",
                name_token.line,
                name_token.col,
            )
        decl = AtomDecl(src.text, tgt.text, src_type, tag)
        if tag != "declared":
            try:
                validate_axiom_atom(decl, self.context)
            except NotAnAxiomInstance as exc:
                raise TypeMismatch(str(exc), name_token.line, name_token.col) from None
        self.context.atoms[name] = decl

    def _decl_path(self, ts: _TokenStream) -> None:
        name_token = ts.expect_name("path name")
        name = self._fresh(name_token)
        ts.expect(":=", ":=")
        term, _ = self._path_expr(ts)
        ts.end()
        self.paths[name] = term

    # -- expressions ---------------------------------------------------

    def _path_expr(self, ts: _TokenStream) -> tuple[PathTerm, tuple[Object, Object]]:
        token = ts.expect_name("path expression")
        if token.text in ("tau", "sigma", "rho", "xi", "mu", "nu"):
            return self._former(token, ts)
        return self._named_path(token)

    def _named_path(self, token: Token) -> tuple[PathTerm, tuple[Object, Object]]:
        name = token.text
        if name in self.context.atoms:
            term: PathTerm = Atom(name)
        elif name in self.paths:
            term = self.paths[name]
        elif name in self.context.elements:
            raise TypeMismatch(
                f"'{name}' is an element; write rho({name}) for its trivial path",
                token.line,
                token.col,
            )
        else:
            raise UndeclaredName(f"unknown path or step '{name}'", token.line, token.col)
        return term, endpoints(term, self.context)

    def _former(self, head: Token, ts: _TokenStream) -> tuple[PathTerm, tuple[Object, Object]]:
        ts.expect("(")
        ctx = self.context
        if head.text == "tau":
            left, (lsrc, ltgt) = self._path_expr(ts)
            ts.expect(",")
            right, (rsrc, rtgt) = self._path_expr(ts)
            ts.expect(")")
            if ltgt != rsrc:
                raise TypeMismatch(
                    "cannot chain: left path ends where the right one does not start",
                    head.line,
                    head.col,
                )
            return Trans(left, right), (lsrc, rtgt)
        if head.text == "sigma":
            body, (src, tgt) = self._path_expr(ts)
            ts.expect(")")
            return Sym(body), (tgt, src)
        if head.text == "rho":
            token = ts.peek()
            if token.kind == "name" and token.text in ctx.elements:
                ts.skip()
                ts.expect(")")
                obj = Object(0, token.text)
                return Refl(obj), (obj, obj)
            body, _ = self._path_expr(ts)
            ts.expect(")")
            obj = path_obj(body)
            return Refl(obj), (obj, obj)
        if head.text == "xi":
            var = ts.expect_name("bound variable")
            ts.expect(",")
            body, _ = self._path_expr(ts)
            ts.expect(")")
            term = Xi(var.text, body)
            return term, self._typed_endpoints(term, head)
        if head.text == "mu":
            func = self._lambda_element(ts)
            ts.expect(",")
            body, _ = self._path_expr(ts)
            ts.expect(")")
            term = Mu(func, body)
            return term, self._typed_endpoints(term, head)
        # nu
        body, _ = self._path_expr(ts)
        ts.expect(",")
        arg = self._lambda_element(ts)
        ts.expect(")")
        term = Nu(body, arg)
        return term, self._typed_endpoints(term, head)

    def _lambda_element(self, ts: _TokenStream) -> str:
        token = ts.expect_name("lambda element")
        if token.text not in self.context.elements:
            raise UndeclaredName(f"unknown element '{token.text}'", token.line, token.col)
        if token.text not in self.context.lambda_elements:
            raise TypeMismatch(
                f"element '{token.text}' has no lambda value", token.line, token.col
            )
        return token.text

    def _typed_endpoints(self, term: PathTerm, head: Token) -> tuple[Object, Object]:
        try:
            return endpoints(term, self.context)
        except _errors.PathRwError as exc:
            raise TypeMismatch(str(exc), head.line, head.col) from None

    def _lambda_expr(self, ts: _TokenStream) -> LambdaTerm:
        if ts.peek_is("\\"):
            ts.skip()
            var = ts.expect_name("bound variable")
            ts.expect(".")
            return Abs(var.text, self._lambda_expr(ts))
        term = self._lambda_atom(ts)
        while ts.peek_is_name() or ts.peek_is("(") or ts.peek_is("\\"):
            if ts.peek_is("\\"):
                return App(term, self._lambda_expr(ts))
            term = App(term, self._lambda_atom(ts))
        return term

    def _lambda_atom(self, ts: _TokenStream) -> LambdaTerm:
        if ts.peek_is("("):
            ts.skip()
            inner = self._lambda_expr(ts)
            ts.expect(")")
            return inner
        token = ts.expect_name("lambda term")
        return Var(token.text)


class _TokenStream:
    """A line's tokens, closed by an "end" token at the column past the last one.

    Punctuation and ``:=`` are matched by text alone: no other kind of token
    spells them.
    """

    def __init__(self, tokens: list[Token], line: int):
        eol = tokens[-1].col + len(tokens[-1].text) if tokens else 1
        tokens.append(Token("end", "", line, eol))
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def at_end(self) -> bool:
        return self.tokens[self.index].kind == "end"

    def peek_is(self, text: str) -> bool:
        return self.tokens[self.index].text == text

    def peek_is_name(self) -> bool:
        return self.tokens[self.index].kind == "name"

    def skip(self) -> None:
        self.index += 1

    def expect_name(self, what: str) -> Token:
        token = self.tokens[self.index]
        if token.kind != "name":
            raise _expected(what, token)
        self.index += 1
        return token

    def expect(self, text: str, what: str | None = None) -> Token:
        token = self.tokens[self.index]
        if token.text != text:
            raise _expected(what or f"'{text}'", token)
        self.index += 1
        return token

    def names_until_end(self, what: str) -> list[Token]:
        names = [self.expect_name(what)]
        while not self.at_end():
            names.append(self.expect_name(what))
        return names

    def end(self) -> None:
        token = self.tokens[self.index]
        if token.kind != "end":
            raise DslSyntaxError(f"unexpected trailing {token.text!r}", token.line, token.col)


def _expected(what: str, token: Token) -> DslSyntaxError:
    if token.kind == "end":
        return DslSyntaxError(f"expected {what}", token.line, token.col)
    return DslSyntaxError(f"expected {what}, got {token.text!r}", token.line, token.col)


def parse_path_expr(text: str, ctx: Context, paths: dict[str, PathTerm] | None = None, line: int = 1) -> PathTerm:
    """Parse a single path expression against an existing context."""
    parser = _ScriptParser()
    parser.context = ctx
    parser.paths = dict(paths or {})
    ts = _TokenStream(_tokenize_line(text, line), line)
    term, _ = parser._path_expr(ts)
    ts.end()
    return term


def parse_lambda_expr(text: str, line: int = 1) -> LambdaTerm:
    """Parse a single lambda expression."""
    parser = _ScriptParser()
    ts = _TokenStream(_tokenize_line(text, line), line)
    term = parser._lambda_expr(ts)
    ts.end()
    return term
