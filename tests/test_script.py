"""Script front-end: parsing, located errors, aliases, and round trips.

The tokenizer scans each line once. The per-position loop it replaced is
kept below as the reference: every line must give the same tokens, and
every stray character the same error at the same column.
"""

from __future__ import annotations

import random
import re

import pytest

from pathrw.errors import DslSyntaxError, TypeMismatch, UndeclaredName
from pathrw.lam import Abs, App, Var
from pathrw.oracle import enumerate_terms
from pathrw.script import _tokenize_line, parse_lambda_expr, parse_path_expr, parse_script
from pathrw.terms import (
    Atom,
    AtomDecl,
    Context,
    Mu,
    Object,
    Refl,
    Sym,
    Trans,
    Xi,
    endpoints,
    format_term,
    level,
)


def el(name):
    return Object(0, name)


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
    """(kind, text, line, col) per token, matching one token at a time from each position."""
    tokens = []
    i = 0
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
        i = m.end()
    return tokens


def outcome(tokenize, text, line_no=1):
    try:
        return [tuple(token) for token in tokenize(text, line_no)]
    except DslSyntaxError as exc:
        return (str(exc), exc.line, exc.col)


def assert_tokens_agree(lines):
    for line_no, text in enumerate(lines, start=1):
        expected = outcome(reference_tokens, text, line_no)
        assert outcome(_tokenize_line, text, line_no) == expected, text


TRIANGLE = Context(
    ("A",),
    {"a": "A", "b": "A", "c": "A"},
    {},
    {"r": AtomDecl("a", "b", "A"), "s": AtomDecl("b", "c", "A"), "u": AtomDecl("a", "c", "A")},
)
TRIANGLE_DECLS = "type A\nelem a b c : A\nstep r : a = b\nstep s : b = c\nstep u : a = c\n"
# Each step of TRIANGLE and its inverse, with their endpoints.
LINKS = [
    link
    for name, decl in TRIANGLE.atoms.items()
    for link in ((Atom(name), (decl.source, decl.target)), (Sym(Atom(name)), (decl.target, decl.source)))
]
LAMBDA_DECLS = "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"


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


def test_tokens_agree_with_reference_on_generated_scripts():
    """Scripts shaped like the benchmark's: chains of steps dressed in redundancy."""
    for seed in range(6):
        rng = random.Random(seed)
        lines = (TRIANGLE_DECLS + LAMBDA_DECLS).splitlines()
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
        lines += ["path f0 := tau(al, sigma(al))", "path f1 := rho(m)"]
        assert_tokens_agree(lines)
        assert len(parse_script("\n".join(lines)).paths) == 14


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
        assert isinstance(outcome(_tokenize_line, text), tuple), text


def test_end_of_line_errors_keep_their_columns():
    """An error at the end of a line points just past its last token, as read."""
    cases = [
        ("type", "4:1: expected type name"),  # the stream after the keyword is empty
        ("path p := sigma(r", "4:18: expected ')'"),
        ("path p := σ(r", "4:14: expected ')'"),
        ("path p := σ", "4:16: expected '('"),  # past "sigma", as σ reads
        ("path p :=", "4:10: expected path expression"),
        ("lam a := λx", "4:12: expected '.'"),
    ]
    for line, message in cases:
        with pytest.raises(DslSyntaxError, match=f"^{re.escape(message)}$"):
            parse_script("type A\nelem a b : A\nstep r : a = b\n" + line)
