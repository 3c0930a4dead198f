"""Script front-end: parsing, located errors, aliases, and round trips.

Each line is checked for stray characters and split into token texts by
two regex passes, and path expressions are parsed on an explicit stack.
Two earlier implementations are kept below as references:

- the per-position tokenizer loop: on every line, ``_token_texts`` must give
  the same token texts, and the parser's error helper the same columns and
  end column; every stray character must give the same error at the same
  column;
- the token-stream, recursive-descent parser: on every input the parser
  must build the same term, or raise the same error class and message at
  the same line and column.
"""

from __future__ import annotations

import collections
import random
import re

import pytest

import pathrw.script
import pathrw.terms
from pathrw.errors import (
    DslSyntaxError,
    NotAnAxiomInstance,
    PathRwError,
    TypeMismatch,
    UndeclaredName,
    UnresolvedLambda,
)
from pathrw.lam import Abs, App, LambdaTerm, Var, validate_axiom_atom
from pathrw.oracle import enumerate_terms
from pathrw.script import Script, _Parser, _token_texts, parse_lambda_expr, parse_path_expr, parse_script
from pathrw.terms import (
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
    format_term,
    level,
    path_obj,
)

from conftest import FORMER_ERRORS, LAMBDA_SCRIPT, TRIANGLE, TRIANGLE_SCRIPT, el

REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<assign>:=)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<greek>[τσρξμνυ])
    | (?P<lambda>[\\λ])
    | (?P<punct>[():,=.\[\]])
    """,
    re.VERBOSE,
)
ALIASES = {"τ": "tau", "σ": "sigma", "ρ": "rho", "ξ": "xi", "μ": "mu", "ν": "nu", "υ": "nu"}


def reference_tokens(text, line_no):
    """(kind, text, line, col) per token, matching one token at a time from each position.

    The list closes with an "end" token just past the last token's raw text.
    """
    tokens = []
    i = last = 0
    while i < len(text):
        m = REFERENCE_TOKEN_RE.match(text, i)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[i]!r}", line_no, i + 1)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "greek":
                kind, value = "name", ALIASES[value]
            elif kind == "lambda":
                value = "\\"
            tokens.append((kind, value, line_no, i + 1))
            last = m.end()
        i = m.end()
    return tokens + [("end", "", line_no, last + 1)]


def scanned_tokens(text, line_no):
    """(text, line, col) per token: the texts ``_token_texts`` gives, the columns the parser's errors name."""
    parser = _Parser(Context(), {}, text, line_no)
    tokens = []
    for i, value in enumerate(_token_texts(text, line_no)):
        located, col = parser._token(i)
        assert located == value, (text, i)
        tokens.append((value, line_no, col))
    return tokens


def outcome(tokenize, text, line_no=1):
    try:
        return [tuple(token) for token in tokenize(text, line_no)]
    except DslSyntaxError as exc:
        return (str(exc), exc.line, exc.col)


def assert_tokens_agree(lines):
    for line_no, text in enumerate(lines, start=1):
        expected = outcome(reference_tokens, text, line_no)
        if isinstance(expected, list):
            expected = [token[1:] for token in expected]  # the kinds have no counterpart
        assert outcome(scanned_tokens, text, line_no) == expected, text


# -- the reference parser: a token stream read by recursive descent ----------

RefToken = collections.namedtuple("RefToken", "kind text line col")


def reference_line(text, line_no):
    return [RefToken(*token) for token in reference_tokens(text, line_no)]



def reference_parse_script(text):
    parser = ReferenceParser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("--"):
            continue
        parser.declaration(reference_line(line, line_no))
    parser.context.check()
    return Script(parser.context, parser.paths)


class ReferenceParser:
    def __init__(self) -> None:
        self.context = Context(base_types=(), elements={}, lambda_elements={}, atoms={})
        self.paths: dict[str, PathTerm] = {}

    # -- declarations --------------------------------------------------

    def declaration(self, tokens: list[RefToken]) -> None:
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
        handler(ReferenceTokenStream(tokens[1:]))

    def _fresh(self, token: RefToken) -> str:
        name = token.text
        ctx = self.context
        if name in ctx.elements or name in ctx.atoms or name in ctx.base_types or name in self.paths:
            raise DslSyntaxError(f"name '{name}' is already declared", token.line, token.col)
        return name

    def _decl_type(self, ts: ReferenceTokenStream) -> None:
        for token in ts.names_until_end("type name"):
            ctx = self.context
            self.context = Context(
                ctx.base_types + (self._fresh(token),), ctx.elements, ctx.lambda_elements, ctx.atoms
            )

    def _decl_elem(self, ts: ReferenceTokenStream) -> None:
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

    def _decl_lam(self, ts: ReferenceTokenStream) -> None:
        name_token = ts.expect_name("element name")
        if name_token.text not in self.context.elements:
            raise UndeclaredName(
                f"'{name_token.text}' must be declared with elem before lam",
                name_token.line,
                name_token.col,
            )
        if name_token.text in self.context.lambda_elements:
            raise DslSyntaxError(
                f"element '{name_token.text}' already has a lambda value", name_token.line, name_token.col
            )
        ts.expect(":=", ":=")
        value = self._lambda_expr(ts)
        ts.end()
        self.context.lambda_elements[name_token.text] = value

    def _decl_step(self, ts: ReferenceTokenStream) -> None:
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

    def _decl_path(self, ts: ReferenceTokenStream) -> None:
        name_token = ts.expect_name("path name")
        name = self._fresh(name_token)
        ts.expect(":=", ":=")
        term, _ = self._path_expr(ts)
        ts.end()
        self.paths[name] = term

    # -- expressions ---------------------------------------------------

    def _path_expr(self, ts: ReferenceTokenStream) -> tuple[PathTerm, tuple[Object, Object]]:
        token = ts.expect_name("path expression")
        if token.text in ("tau", "sigma", "rho", "xi", "mu", "nu"):
            return self._former(token, ts)
        return self._named_path(token)

    def _named_path(self, token: RefToken) -> tuple[PathTerm, tuple[Object, Object]]:
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

    def _former(self, head: RefToken, ts: ReferenceTokenStream) -> tuple[PathTerm, tuple[Object, Object]]:
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

    def _lambda_element(self, ts: ReferenceTokenStream) -> str:
        token = ts.expect_name("lambda element")
        if token.text not in self.context.elements:
            raise UndeclaredName(f"unknown element '{token.text}'", token.line, token.col)
        if token.text not in self.context.lambda_elements:
            raise TypeMismatch(
                f"element '{token.text}' has no lambda value", token.line, token.col
            )
        return token.text

    def _typed_endpoints(self, term: PathTerm, head: RefToken) -> tuple[Object, Object]:
        try:
            return endpoints(term, self.context)
        except UnresolvedLambda as exc:
            raise TypeMismatch(exc.what, head.line, head.col) from None

    def _lambda_expr(self, ts: ReferenceTokenStream) -> LambdaTerm:
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

    def _lambda_atom(self, ts: ReferenceTokenStream) -> LambdaTerm:
        if ts.peek_is("("):
            ts.skip()
            inner = self._lambda_expr(ts)
            ts.expect(")")
            return inner
        token = ts.expect_name("lambda term")
        return Var(token.text)


class ReferenceTokenStream:
    """A line's tokens, up to and including its "end" token.

    Punctuation and ``:=`` are matched by text alone: no other kind of token
    spells them.
    """

    def __init__(self, tokens: list[RefToken]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> RefToken:
        return self.tokens[self.index]

    def at_end(self) -> bool:
        return self.tokens[self.index].kind == "end"

    def peek_is(self, text: str) -> bool:
        return self.tokens[self.index].text == text

    def peek_is_name(self) -> bool:
        return self.tokens[self.index].kind == "name"

    def skip(self) -> None:
        self.index += 1

    def expect_name(self, what: str) -> RefToken:
        token = self.tokens[self.index]
        if token.kind != "name":
            raise reference_expected(what, token)
        self.index += 1
        return token

    def expect(self, text: str, what: str | None = None) -> RefToken:
        token = self.tokens[self.index]
        if token.text != text:
            raise reference_expected(what or f"'{text}'", token)
        self.index += 1
        return token

    def names_until_end(self, what: str) -> list[RefToken]:
        names = [self.expect_name(what)]
        while not self.at_end():
            names.append(self.expect_name(what))
        return names

    def end(self) -> None:
        token = self.tokens[self.index]
        if token.kind != "end":
            raise DslSyntaxError(f"unexpected trailing {token.text!r}", token.line, token.col)


def reference_expected(what: str, token: RefToken) -> DslSyntaxError:
    if token.kind == "end":
        return DslSyntaxError(f"expected {what}", token.line, token.col)
    return DslSyntaxError(f"expected {what}, got {token.text!r}", token.line, token.col)


def reference_parse_path_expr(text: str, ctx: Context, paths: dict[str, PathTerm] | None = None) -> PathTerm:
    """Parse a single path expression against an existing context, as line 1."""
    parser = ReferenceParser()
    parser.context = ctx
    parser.paths = dict(paths or {})
    ts = ReferenceTokenStream(reference_line(text, 1))
    term, _ = parser._path_expr(ts)
    ts.end()
    return term


def reference_parse_lambda_expr(text: str) -> LambdaTerm:
    """Parse a single lambda expression, as line 1."""
    parser = ReferenceParser()
    ts = ReferenceTokenStream(reference_line(text, 1))
    term = parser._lambda_expr(ts)
    ts.end()
    return term


# Each step of TRIANGLE and its inverse, with their endpoints.
LINKS = [
    link
    for name, decl in TRIANGLE.atoms.items()
    for link in ((Atom(name), (decl.source, decl.target)), (Sym(Atom(name)), (decl.target, decl.source)))
]


BASIC = """\
type A
elem a b : A
step r : a = b
path p := tau(r, sigma(r))
"""


def test_parse_basic_script():
    script = parse_script(BASIC)
    assert set(script.context.elements) == {"a", "b"}
    assert set(script.context.atoms) == {"r"}
    p = script.paths["p"]
    assert p == Trans(Atom("r"), Sym(Atom("r")))
    assert endpoints(p, script.context) == (el("a"), el("a"))


def test_empty_input_is_empty_script():
    script = parse_script("")
    assert script.paths == {}
    assert script.context.elements == {}


def test_comments_and_blank_lines_ignored():
    script = parse_script("-- nothing here\n\n" + BASIC + "\n-- trailing\n")
    assert "p" in script.paths


def test_type_mismatch_at_tau_node():
    with pytest.raises(TypeMismatch) as exc:
        parse_script("type A\nelem a b : A\nstep r : a = b\npath p := tau(r, r)")
    assert exc.value.line == 4
    assert exc.value.col == 11  # the tau keyword


def test_undeclared_name_located():
    with pytest.raises(UndeclaredName) as exc:
        parse_script("type A\nelem a : A\npath p := sigma(q)")
    assert (exc.value.line, exc.value.col) == (3, 17)


def test_syntax_error_located():
    with pytest.raises(DslSyntaxError) as exc:
        parse_script("type A\nelem a b : A\nstep r : a = b\npath p := tau(r,,)")
    assert exc.value.line == 4


def test_unterminated_expression_located():
    with pytest.raises(DslSyntaxError) as exc:
        parse_script("type A\nelem a b : A\nstep r : a = b\npath p := sigma(r")
    assert exc.value.line == 4


def test_an_element_line_needs_a_name():
    with pytest.raises(DslSyntaxError, match="^2:8: expected at least one element name$"):
        parse_script("type A\nelem : A")


def test_duplicate_name_rejected():
    with pytest.raises(DslSyntaxError):
        parse_script("type A\nelem a : A\nstep a : a = a")


def test_element_reference_needs_rho():
    with pytest.raises(TypeMismatch):
        parse_script("type A\nelem a : A\npath p := a")


def test_unicode_aliases():
    script = parse_script(
        "type A\nelem a b : A\nstep r : a = b\npath p := τ(r, σ(r))\npath q := ρ(a)"
    )
    assert script.paths["p"] == Trans(Atom("r"), Sym(Atom("r")))
    assert script.paths["q"] == Refl(el("a"))


def test_rho_of_path_builds_level_two():
    script = parse_script("type A\nelem a b : A\nstep r : a = b\npath p := sigma(rho(r))")
    p = script.paths["p"]
    assert p == Sym(Refl(Object(1, Atom("r"))))
    assert level(p) == 2


def test_path_references_resolve_by_value():
    script = parse_script(
        "type A\nelem a b : A\nstep r : a = b\npath p := sigma(r)\npath q := tau(r, p)"
    )
    assert script.paths["q"] == Trans(Atom("r"), Sym(Atom("r")))


def test_lambda_declarations_and_formers():
    script = parse_script(
        """
type F
elem m n : F
lam m := \\x. x
lam n := \\y. y
step al : m = n alpha
path p := xi(v, al)
path q := mu(m, al)
path w := nu(al, n)
"""
    )
    assert script.paths["p"] == Xi("v", Atom("al"))
    assert script.paths["q"] == Mu("m", Atom("al"))
    src, _ = endpoints(script.paths["p"], script.context)
    assert src == Object(0, Abs("v", Abs("x", Var("x"))))


def test_lam_requires_declared_element():
    with pytest.raises(UndeclaredName):
        parse_script("type F\nlam m := \\x. x")


def test_mu_requires_lambda_value():
    with pytest.raises(TypeMismatch):
        parse_script(
            "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\n"
            "step al : m = n alpha\nelem k : F\npath q := mu(k, al)"
        )


def test_beta_step_validated():
    script = parse_script(
        """
type F
elem f g : F
lam f := (\\x. x) y
lam g := y
step b : f = g beta
"""
    )
    assert script.context.atoms["b"].tag == "beta"


def test_eta_side_condition_rejected_with_location():
    with pytest.raises(TypeMismatch) as exc:
        parse_script(
            "type F\nelem f g : F\nlam f := \\x. x x\nlam g := x\nstep e : f = g eta"
        )
    assert exc.value.line == 5
    with pytest.raises(TypeMismatch, match="^5:6: eta: right endpoint differs from the function part$"):
        parse_script("type F\nelem m n : F\nlam m := \\x. f x\nlam n := g\nstep e : m = n eta")


def test_step_type_mismatch():
    with pytest.raises(TypeMismatch):
        parse_script("type A B\nelem a : A\nelem b : B\nstep r : a = b")


def test_lambda_expression_parsing():
    assert parse_lambda_expr("\\x. x") == Abs("x", Var("x"))
    assert parse_lambda_expr("f x (g x)") == App(
        App(Var("f"), Var("x")), App(Var("g"), Var("x"))
    )
    assert parse_lambda_expr("\\x. \\y. x y") == Abs("x", Abs("y", App(Var("x"), Var("y"))))
    assert parse_lambda_expr("(\\x. x) y") == App(Abs("x", Var("x")), Var("y"))


def test_print_parse_round_trip_exhaustive(ctx_rs):
    for t in enumerate_terms(ctx_rs, 6):
        printed = format_term(t)
        assert parse_path_expr(printed, ctx_rs) == t, printed


def test_round_trip_with_formers():
    script = parse_script(
        """
type F
elem m n : F
lam m := \\x. x
lam n := \\y. y
step al : m = n alpha
path p := tau(xi(v, al), sigma(xi(v, al)))
"""
    )
    t = script.paths["p"]
    assert parse_path_expr(format_term(t), script.context) == t


def test_tau_of_different_levels_cannot_chain():
    with pytest.raises(TypeMismatch) as exc:
        parse_script(
            "type A\nelem a b : A\nstep r : a = b\npath p := sigma(r)\npath q := tau(rho(p), r)"
        )
    assert str(exc.value).startswith("5:11: cannot chain")


def generated_script_lines(seed):
    """A script shaped like the benchmark's: chains of steps dressed in redundancy."""
    rng = random.Random(seed)
    lines = (TRIANGLE_SCRIPT + LAMBDA_SCRIPT).splitlines()
    for j in range(12):
        x = rng.choice("abc")
        pieces = []
        for _ in range(1 + j % 4):
            link, y = rng.choice([(t, y) for t, (src, y) in LINKS if src == x])
            dressed = [Sym(Sym(link)), Trans(Refl(el(x)), link), Trans(link, Sym(Refl(el(y))))]
            pieces.append(rng.choice([link, *dressed]))
            x = y
        term = pieces[0]
        for piece in pieces[1:]:
            term = Trans(term, piece)
        lines.append(f"path p{j} := {format_term(term)}")
    return lines + ["path f0 := tau(al, sigma(al))", "path f1 := rho(m)"]


def test_tokens_agree_with_reference_on_generated_scripts():
    for seed in range(6):
        lines = generated_script_lines(seed)
        assert_tokens_agree(lines)
        assert len(parse_script("\n".join(lines)).paths) == 14


def test_error_free_lines_never_locate_a_token(monkeypatch):
    """Only an error scans a line for columns: well-formed scripts never call the parser's error helper."""

    def located(self, i):
        raise AssertionError(f"token {i} of {self.line!r} located")

    monkeypatch.setattr(_Parser, "_token", located)
    for seed in range(6):
        assert len(parse_script("\n".join(generated_script_lines(seed))).paths) == 14
    greek = parse_path_expr("τ(r, σ(tau(r, ρ(b))))", TRIANGLE)
    assert greek == parse_path_expr("tau(r, sigma(tau(r, rho(b))))", TRIANGLE)
    with pytest.raises(AssertionError, match="^token 3 of 'tau\\(r s\\)' located$"):
        parse_path_expr("tau(r s)", TRIANGLE)


def test_tokens_agree_with_reference_on_triangle_sweep():
    assert_tokens_agree([format_term(t) for t in enumerate_terms(TRIANGLE, 8)])


def test_tokens_agree_with_reference_on_spacing_and_aliases():
    assert_tokens_agree(
        [
            "path p := τ(ρ(a), σ(σ(r)))",
            "path q:=ξ(v,al)",
            "path w := μ(m, al)  ",
            "  path z := ν(al, n)",
            "path y := υ(al,n)",
            "\tpath\tp\t:=\ttau( r ,\tsigma (r) )\t",
            "lam m := λx. x x",
            "lam m := \\x.\\y. (x y)",
            "lam  m:=λx.λy.x",
            "step al : m = n [alpha]",
            "elem a' b_2 _c : A",
            "",
            "   ",
            "\t",
            ":= : = :==",
        ]
    )


@pytest.mark.parametrize("stray", ["@", "!", "#", "é", "ω", "1", "-"])
def test_stray_characters_give_the_reference_error(stray):
    lines = [
        f"path p := tau(r, {stray}r)",
        f"{stray}path p := r",
        f"path p := r {stray}",
        f"path p\t:=  σ(r){stray}",
        f"lam m := \\x. x {stray}y",
    ]
    assert_tokens_agree(lines)
    for text in lines:
        assert isinstance(outcome(_token_texts, text), tuple), text


def test_end_of_line_errors_keep_their_columns():
    """An error at the end of a line points just past its last character."""
    cases = [
        ("type", "4:5: expected type name"),
        ("path p := sigma(r", "4:18: expected ')'"),
        ("path p := σ(r", "4:14: expected ')'"),
        ("path p := σ", "4:12: expected '('"),
        ("path p :=", "4:10: expected path expression"),
        ("lam a := λx", "4:12: expected '.'"),
    ]
    for line, message in cases:
        with pytest.raises(DslSyntaxError, match=f"^{re.escape(message)}$"):
            parse_script("type A\nelem a b : A\nstep r : a = b\n" + line)


def test_repeated_declarations_fail_at_their_own_column():
    """A type name repeated on its line, and a second lambda value, as both parsers locate them."""
    beta = "type F\nelem m n : F\nlam m := (\\x. x) y\nlam n := y\nstep b : m = n beta\n"
    cases = [
        ("type A A\nelem a : A\n", "1:8: name 'A' is already declared"),
        ("type A B A\n", "1:10: name 'A' is already declared"),
        ("type A\ntype B A\n", "2:8: name 'A' is already declared"),
        ("type A\nelem a a : A\n", "2:8: name 'a' is already declared"),
        (beta + "lam n := z\npath p := tau(b, sigma(b))\n", "6:5: element 'n' already has a lambda value"),
        ("type F\nelem m : F\nlam m := x\nlam  m := x\n", "4:6: element 'm' already has a lambda value"),
    ]
    for text, message in cases:
        with pytest.raises(DslSyntaxError, match=f"^{re.escape(message)}$"):
            parse_script(text)
        assert_scripts_agree(text)


# -- the parser against the reference parser ------------------------------


def result_of(parse, *args):
    """What ``parse`` returns, or the class, message, line and column of its error."""
    try:
        return parse(*args)
    except PathRwError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def assert_scripts_agree(text):
    got = result_of(parse_script, text)
    assert got == result_of(reference_parse_script, text), text
    if type(got) is Script:  # the declarations were judged line by line; the context's own rule agrees
        got.context.check()


def assert_exprs_agree(text, ctx, paths=None):
    expected = result_of(reference_parse_path_expr, text, ctx, paths)
    assert result_of(parse_path_expr, text, ctx, paths) == expected, text


def mutations(text):
    """Every prefix of ``text``, and ``text`` with one of ( ) , σ @ inserted anywhere."""
    for k in range(len(text) + 1):
        yield text[:k]
        for c in "(),σ@":
            yield text[:k] + c + text[k:]


GREEK = {"tau": "τ", "sigma": "σ", "rho": "ρ", "xi": "ξ", "mu": "μ", "nu": "ν"}


def greek(text):
    return re.sub(r"\b(tau|sigma|rho|xi|mu|nu)\b", lambda m: GREEK[m[1]], text)


def spaced(text, rng):
    """``text`` with random whitespace, or none, around each parenthesis and comma."""
    pad = ["", " ", "\t", "  "]
    return re.sub(r"\s*([(),])\s*", lambda m: rng.choice(pad) + m[1] + rng.choice(pad), text)


def styles(text, rng):
    return [text, greek(text), spaced(text, rng)]


SWEEP = [format_term(t) for t in enumerate_terms(TRIANGLE, 8)]
# Named paths for expressions parsed on their own: a leaf may also name one.
TRIANGLE_PATHS = {"p": Sym(Atom("r")), "q": Trans(Atom("r"), Atom("s"))}
LAMBDA_CTX = parse_script(LAMBDA_SCRIPT).context
# The hand-written cases of this file: lambda values, formers, rho of a path,
# tau across levels.
HAND_SCRIPTS = [
    BASIC,
    "type A\nelem a b : A\nstep r : a = b\npath p := sigma(rho(r))",
    "type A\nelem a b : A\nstep r : a = b\npath p := sigma(r)\npath q := tau(r, p)",
    "type A\nelem a b : A\nstep r : a = b\npath p := sigma(r)\npath q := tau(rho(p), r)",
    LAMBDA_SCRIPT + "path p := xi(v, al)\npath q := mu(m, al)\npath w := nu(al, n)",
    LAMBDA_SCRIPT + "path p := tau(xi(v, al), sigma(xi(v, al)))",
    LAMBDA_SCRIPT + "elem k : F\npath q := mu(k, al)\npath w := nu(al, k)\npath z := xi(v, rho(al))",
    "type F\nelem f g : F\nlam f := (\\x. x) y\nlam g := y\nstep b : f = g beta",
    "type F\nelem f g : F\nlam f := \\x. x x\nlam g := x\nstep e : f = g eta",
    "type A B\nelem a : A\nelem b : B\nstep r : a = b",
    *FORMER_ERRORS,
]
LAMBDA_TEXTS = ["\\x. x", "f x (g x)", "\\x. \\y. x y", "(\\x. x) y", "λx.λy.x", "\\x.\\y. (x y)"]


def test_parser_agrees_with_reference_on_triangle_sweep():
    rng = random.Random(8)
    for text in SWEEP:
        for variant in styles(text, rng):
            assert_exprs_agree(variant, TRIANGLE, TRIANGLE_PATHS)


def test_parser_agrees_with_reference_on_mutated_sweep_lines():
    rng = random.Random(9)
    for text in rng.sample(SWEEP, 20) + ["tau(p, tau(sigma(q), rho(a)))"]:
        for variant in styles(text, rng):
            for mutant in mutations(variant):
                assert_exprs_agree(mutant, TRIANGLE, TRIANGLE_PATHS)


def test_parser_agrees_with_reference_on_generated_scripts():
    for seed in range(6):
        lines = generated_script_lines(seed)
        assert_scripts_agree("\n".join(lines))
        assert_scripts_agree("\n".join(greek(line) for line in lines))
        script = parse_script("\n".join(lines))
        for line in lines[-14:-2:3]:
            for mutant in mutations(line.split(" := ")[1]):
                assert_exprs_agree(mutant, script.context, script.paths)


def test_parser_agrees_with_reference_on_mutated_hand_written_scripts():
    rng = random.Random(10)
    for text in HAND_SCRIPTS:
        assert_scripts_agree(text)
        lines = text.splitlines()
        for k, line in enumerate(lines):
            for variant in (line, spaced(greek(line), rng)):
                for mutant in mutations(variant):
                    assert_scripts_agree("\n".join(lines[:k] + [mutant] + lines[k + 1:]))


def test_parser_agrees_with_reference_on_formers_and_lambda_values():
    rng = random.Random(11)
    formers = ["xi(v, al)", "mu(m, tau(al, sigma(al)))", "nu(sigma(al), n)", "rho(xi(v, al))",
               "xi(v, mu(m, nu(al, n)))", "tau(rho(m), al)", "mu(v, al)", "nu(al, zz)", "xi(al, al)"]
    for text in formers:
        for variant in styles(text, rng):
            for mutant in mutations(variant):
                assert_exprs_agree(mutant, LAMBDA_CTX)
    for text in LAMBDA_TEXTS:
        for mutant in mutations(text):
            assert result_of(parse_lambda_expr, mutant) == result_of(reference_parse_lambda_expr, mutant)


# -- deep input at the default recursion limit ------------------------------

DEPTH = 10_000


def alternating_links(n):
    return ["r" if k % 2 == 0 else "sigma(r)" for k in range(n)]


def leaves_in_order(t):
    """The leaves of a Trans tree, left to right, by an explicit-stack walk."""
    leaves, stack = [], [t]
    while stack:
        node = stack.pop()
        if type(node) is Trans:
            stack += (node.right, node.left)
        else:
            leaves.append(node)
    return leaves


def spine(t, side):
    """How many Trans nodes lie along ``side`` from the root, and the node below them."""
    n = 0
    while type(t) is Trans:
        t, n = getattr(t, side), n + 1
    return n, t


def test_ten_thousand_nested_sigmas_parse():
    t = parse_path_expr("sigma(" * DEPTH + "r" + ")" * DEPTH, TRIANGLE)
    for _ in range(DEPTH):
        assert type(t) is Sym
        t = t.body
    assert type(t) is Atom and t.name == "r"


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_ten_thousand_link_tau_chains_parse(nesting):
    links = alternating_links(DEPTH)
    if nesting == "left":
        text = "tau(" * (DEPTH - 1) + links[0] + "".join(f", {link})" for link in links[1:])
    else:
        text = "".join(f"tau({link}, " for link in links[:-1]) + links[-1] + ")" * (DEPTH - 1)
    t = parse_path_expr(text, TRIANGLE)
    assert [format_term(leaf) for leaf in leaves_in_order(t)] == links
    assert spine(t, nesting)[0] == DEPTH - 1


def test_two_thousand_nested_xis_parse_in_a_script():
    n = 2_000
    script = parse_script(LAMBDA_SCRIPT + "path p := " + "xi(v, " * n + "al" + ")" * n + "\n")
    t = script.paths["p"]
    for _ in range(n):
        assert type(t) is Xi and t.var == "v"
        t = t.body
    assert t == Atom("al")


def count_endpoints_calls(monkeypatch):
    calls = []

    def counted(t, ctx):
        calls.append(t)
        return endpoints(t, ctx)

    monkeypatch.setattr(pathrw.script, "endpoints", counted)
    monkeypatch.setattr(pathrw.terms, "endpoints", counted)
    return calls


def test_nested_formers_take_their_endpoints_from_their_bodies(monkeypatch):
    """No former walks its body again: a script's parse calls ``endpoints`` at no depth."""
    calls = count_endpoints_calls(monkeypatch)
    for n in (1, 10, 100):
        script = parse_script(LAMBDA_SCRIPT + "path p := " + "xi(v, mu(m, nu(" * n + "al" + ", n)))" * n)
        assert len(calls) == 0
        assert level(script.paths["p"]) == 1


def test_named_paths_take_their_endpoints_from_the_parse(monkeypatch):
    calls = count_endpoints_calls(monkeypatch)
    parse_script("\n".join(generated_script_lines(0)) + "\npath g := tau(p0, tau(sigma(p0), p0))")
    assert calls == []
    parse_path_expr("tau(p, tau(sigma(p), p))", TRIANGLE, TRIANGLE_PATHS)
    assert calls == [TRIANGLE_PATHS["p"]]  # a path passed in: one walk per parse


def test_each_tagged_step_is_checked_once_per_parse(monkeypatch):
    """``validate_axiom_atom`` runs on each tagged ``step`` line, once, and never on a declared one."""
    calls = []

    def counted(decl, ctx):
        calls.append(decl)
        return validate_axiom_atom(decl, ctx)

    monkeypatch.setattr(pathrw.script, "validate_axiom_atom", counted)
    monkeypatch.setattr(pathrw.terms, "validate_axiom_atom", counted)
    text = "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\nstep d : m = n\n"
    script = parse_script(text)
    assert calls == [script.context.atoms["al"]]
    calls.clear()
    for seed in range(3):
        parse_script("\n".join(generated_script_lines(seed)))
    assert [decl.tag for decl in calls] == ["alpha"] * 3
    calls.clear()
    parse_script(TRIANGLE_SCRIPT)
    assert calls == []


def test_each_leaf_is_built_once_per_parse():
    t = parse_path_expr("tau(tau(r, rho(b)), tau(sigma(r), tau(r, rho(b))))", TRIANGLE)
    r1, refl1, r2, refl2 = t.left.left, t.left.right, t.right.right.left, t.right.right.right
    assert r1 is r2 and refl1 is refl2
    assert t == Trans(Trans(Atom("r"), Refl(el("b"))), Trans(Sym(Atom("r")), Trans(Atom("r"), Refl(el("b")))))
