"""Command-line front end.

Subcommands: normalize, equal, laws, confluence, explain, oracle.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .engine import Derivation, Equal, decide_rw_equal, normalize
from .errors import PathRwError, fmt_position
from .groupoid import LAWS, run_laws
from .oracle import check_confluence, word
from .rules import RULE_SETS, explain_rule, rule_set
from .script import Script, parse_script
from .serialize import derivation_to_doc, doc_to_json
from .terms import format_object, format_term, level

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, PathRwError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="pathrw",
        description="Rewrite, normalize, and compare computational paths.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("normalize", help="reduce a named path to normal form")
    p.add_argument("file")
    p.add_argument("path")
    p.add_argument("--rules", default="paper7", choices=tuple(RULE_SETS))
    p.add_argument("--level", type=int, default=None, help="assert the path's level")
    p.add_argument(
        "--strategy",
        default="leftmost-innermost",
        choices=("leftmost-innermost", "leftmost-outermost"),
    )
    p.add_argument("--json", action="store_true", help="emit a derivation document")
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("equal", help="decide whether two named paths are rw-equal")
    p.add_argument("file")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--rules", default="paper7", choices=tuple(RULE_SETS))
    p.add_argument("--json", action="store_true", help="emit a derivation document")
    p.set_defaults(handler=_cmd_equal)

    p = sub.add_parser("laws", help="run the randomized groupoid-law suite")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_laws)

    p = sub.add_parser("confluence", help="search for non-joinable peaks at desk scale")
    p.add_argument("file")
    p.add_argument("--rules", default="paper7", choices=tuple(RULE_SETS))
    p.add_argument("--max-size", type=int, default=6)
    p.set_defaults(handler=_cmd_confluence)

    p = sub.add_parser("explain", help="print the derivation behind one of the seven rules")
    p.add_argument("rule")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("oracle", help="print a path's reduced word")
    p.add_argument("file")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _load(file: str) -> Script:
    return parse_script(Path(file).read_text(encoding="utf-8"))


def _named_path(script: Script, name: str):
    try:
        return script.paths[name]
    except KeyError:
        raise PathRwError(f"script defines no path named '{name}'") from None


def _print_trace(d: Derivation) -> None:
    for i, step in enumerate(d.steps, start=1):
        arrow = "=>" if step.direction == "forward" else "<="
        print(
            f"  {i}. {step.rule:>5} @ {fmt_position(step.position):<8} {arrow} "
            f"{format_term(step.after)}"
        )


def _cmd_normalize(args) -> int:
    script = _load(args.file)
    term = _named_path(script, args.path)
    if args.level is not None and level(term) != args.level:
        raise PathRwError(f"path '{args.path}' is at level {level(term)}, not {args.level}")
    rs = rule_set(args.rules)
    nf, derivation = normalize(term, rs, script.context, args.strategy)
    if args.json:
        print(doc_to_json(derivation_to_doc(derivation, script.context, rs.name)))
        return EXIT_OK
    print(f"start:  {format_term(term)}")
    _print_trace(derivation)
    print(f"normal: {format_term(nf)}  [{len(derivation.steps)} steps]")
    return EXIT_OK


def _cmd_equal(args) -> int:
    script = _load(args.file)
    p = _named_path(script, args.p)
    q = _named_path(script, args.q)
    rs = rule_set(args.rules)
    verdict = decide_rw_equal(p, q, rs, script.context)
    if not isinstance(verdict, Equal):
        print(f"not equal: {verdict.reason}")
        return EXIT_VERIFICATION
    if args.json:
        print(doc_to_json(derivation_to_doc(verdict.witness, script.context, rs.name)))
    else:
        print(f"equal: {format_term(p)} == {format_term(q)}")
        _print_trace(verdict.witness)
    return EXIT_OK


def _cmd_laws(args) -> int:
    script = _load(args.file)
    seed = args.seed
    env_seed = os.environ.get("PATHRW_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise PathRwError(f"PATHRW_SEED must be an integer, got {env_seed!r}") from None
    report = run_laws(script.context, args.level, args.samples, seed)
    counts = report.counts()
    for law in LAWS:
        passed, failed = counts[law]
        print(f"  {law:<14} passed {passed:>5}  failed {failed:>5}")
    total = len(report.reports)
    failures = len(report.failures)
    print(f"laws: level {report.level}, seed {seed}, {total} checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _cmd_confluence(args) -> int:
    script = _load(args.file)
    rs = rule_set(args.rules)
    peaks = check_confluence(rs, script.context, args.max_size)
    for peak in peaks:
        print(f"peak: {format_term(peak.term)}")
        print(f"  {peak.left_rule} @ {fmt_position(peak.left_pos)} ~> {format_term(peak.left_nf)}")
        print(f"  {peak.right_rule} @ {fmt_position(peak.right_pos)} ~> {format_term(peak.right_nf)}")
    print(f"confluence: rules {rs.name}, max size {args.max_size}, {len(peaks)} peaks")
    return EXIT_OK


def _cmd_explain(args) -> int:
    print(explain_rule(args.rule))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    script = _load(args.file)
    term = _named_path(script, args.path)
    w = word(term, script.context)
    letters = (_letter_text(x.gen) + ("" if x.orient == 1 else "^-1") for x in w.letters)
    rendered = " ".join(letters) or "(empty)"
    print(f"word:   {rendered}")
    print(f"source: {format_object(w.source)}")
    print(f"target: {format_object(w.target)}")
    return EXIT_OK


def _letter_text(gen) -> str:
    if isinstance(gen, tuple) and len(gen) >= 2 and gen[0] == "atom":
        return gen[1]
    if isinstance(gen, tuple) and len(gen) == 3:
        tag, name, body = gen
        return f"{tag}[{name}, {format_term(body)}]"
    return repr(gen)


if __name__ == "__main__":
    sys.exit(main())
