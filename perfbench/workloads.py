"""The four workloads: seeded inputs, the timed operation, and its checks.

Every workload generates its inputs from ``(seed, op index)`` alone, so the
same seed gives the same op stream and no input repeats within a run; a
cache keyed on whole inputs therefore gets no hits. ``run`` is the timed
operation and calls pathrw only through the ``api`` namespace, which the
tracer wraps. ``check`` is untimed and compares the outputs with
``reference``, which shares no code with pathrw beyond the term
constructors. It returns the problems found and the lines that feed the
trace digest. ``properties`` labels an input with what decides its cost.

Why these four (each stresses different pathrw modules):

- pair-sweep: many small pairs. Per-call overhead dominates: ``endpoints``,
  ``word``, short ``canonical_derivation`` runs with extension expansion,
  and ``replay_derivation``. Rescanning from the root is cheap here.
- deep-terms: terms of about 110-400 nodes dense in redundancy. ``first_redex``
  rescans from the root after every step, so cost grows about
  quadratically; ``replace_at`` and structural equality work on big terms.
- tower-laws: ``run_laws`` at levels 2-6. Lifting derivations
  (``derivation_to_path``) next to ``contract_once`` and replay, on terms
  whose atoms are recorded steps.
- cli-mix: ``pathrw.cli.main`` on generated scripts, so parsing, JSON
  documents, the lambda checks and ``check_confluence`` do the work.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path
from types import SimpleNamespace

import reference as ref
from pathrw import cli, engine, groupoid, oracle, serialize
from pathrw.engine import Equal, NotEqual
from pathrw.rules import GROUPOID_COMPLETE, PAPER7
from pathrw.terms import Atom, AtomDecl, Context, Object, Refl, Sym, Trans


def make_api() -> SimpleNamespace:
    """The pathrw entry points the workloads call, in one patchable place."""
    return SimpleNamespace(
        decide_rw_equal=engine.decide_rw_equal,
        replay_derivation=engine.replay_derivation,
        normalize=engine.normalize,
        oracle_equal=oracle.oracle_equal,
        enumerate_terms=oracle.enumerate_terms,
        run_laws=groupoid.run_laws,
        cli_main=cli.main,
        doc_from_json=serialize.doc_from_json,
        replay_document=serialize.replay_document,
    )


# A triangle r: a=b, s: b=c, u: a=c. It has a cycle, so same-endpoint pairs
# can be unequal (about one in five of size <= 5); over a tree every
# same-endpoint pair would be equal.
TRIANGLE = {"r": ("a", "b"), "s": ("b", "c"), "u": ("a", "c")}
TRIANGLE_SCRIPT = "type A\nelem a b c : A\nstep r : a = b\nstep s : b = c\nstep u : a = c\n"
# A tagged atom over lambda values, so parsing runs the axiom-shape check.
LAMBDA_SCRIPT = "type F\nelem m n : F\nlam m := \\x. x\nlam n := \\y. y\nstep al : m = n alpha\n"
LAMBDA_ATOMS = {"al": ("m", "n")}


def triangle_context() -> Context:
    return Context(
        ("A",),
        {"a": "A", "b": "A", "c": "A"},
        {},
        {name: AtomDecl(src, tgt, "A") for name, (src, tgt) in TRIANGLE.items()},
    )


def _refl(elem: str):
    return Refl(Object(0, elem))


def _rules(name: str):
    return PAPER7 if name == "paper7" else GROUPOID_COMPLETE


def _step_lines(steps) -> list[str]:
    return [f"{s.rule} {list(s.position)} {s.direction} {ref.fmt(s.after)}" for s in steps]


def _step_tuples(steps):
    return [(s.rule, s.position, s.direction, s.before, s.after) for s in steps]


# -- random level-1 terms by walking the atom graph ----------------------------


def _letter(rng: random.Random, x: str, atoms, back=None) -> tuple[object, str]:
    """One atom or inverted atom leaving element ``x``, and where it lands.

    ``back``, if given, is the letter just walked; its inverse is not chosen.
    """
    options = [(Atom(n), tgt) for n, (src, tgt) in atoms.items() if src == x]
    options += [(Sym(Atom(n)), src) for n, (src, tgt) in atoms.items() if tgt == x]
    if back is not None:
        undo = back.body if isinstance(back, Sym) else Sym(back)
        options = [option for option in options if option[0] != undo]
    return rng.choice(options)


DECORATIONS = ("plain", "ss", "tlr", "trr", "sr", "pair")


def _decorated(term, x: str, y: str, kind: str):
    """The link ``term`` from ``x`` to ``y`` dressed in redundancy of ``kind``."""
    if kind == "ss":
        return Sym(Sym(term))
    if kind == "tlr":
        return Trans(_refl(x), term)
    if kind == "trr":
        return Trans(term, _refl(y))
    if kind == "sr":
        return Trans(Sym(_refl(x)), term)
    if kind == "pair":
        return Trans(Trans(term, Sym(term)), term)
    return term


def _fold(pieces: list, shape: str):
    if shape == "left":
        out = pieces[0]
        for piece in pieces[1:]:
            out = Trans(out, piece)
        return out
    if shape == "right":
        out = pieces[-1]
        for piece in reversed(pieces[:-1]):
            out = Trans(piece, out)
        return out
    if len(pieces) == 1:
        return pieces[0]
    mid = len(pieces) // 2
    return Trans(_fold(pieces[:mid], shape), _fold(pieces[mid:], shape))


def _chain(rng: random.Random, x: str, kinds, shape: str, atoms, backs=None):
    """A chain from ``x`` with one link per decoration kind; returns it and its end.

    ``backs``, if given, says per link whether the walk steps straight back
    along the previous letter (an inverse pair) or moves on to another one.
    """
    pieces = []
    letter = None
    for j, kind in enumerate(kinds):
        if backs is None:
            letter, y = _letter(rng, x, atoms)
        elif backs[j] and letter is not None:
            letter = letter.body if isinstance(letter, Sym) else Sym(letter)
            y = ref.ends(letter, atoms)[1]
        else:
            letter, y = _letter(rng, x, atoms, letter)
        pieces.append(_decorated(letter, x, y, kind))
        x = y
    return _fold(pieces, shape), x


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    digest_ops = 0  # leading ops whose traces feed the digest
    trace_ops = 0  # ops in each traced pass, a whole number of cycles

    def __init__(self, api: SimpleNamespace, seed: int, workdir: Path):
        self.api = api
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self) -> None:
        raise NotImplementedError

    def make(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, full: bool) -> tuple[list[str], list[str]]:
        raise NotImplementedError

    def properties(self, inp, out) -> dict:
        raise NotImplementedError


class PairSweep(Workload):
    """Same-endpoint pairs of size <= 7, a tenth with differing endpoints."""

    name = "pair-sweep"
    digest_ops = 200
    trace_ops = 400
    MAX_SIZE = 7

    def setup(self) -> None:
        self.ctx = triangle_context()
        self.by_size: dict[int, list] = {}
        self.by_size_ends: dict[tuple, list] = {}
        for t in self.api.enumerate_terms(self.ctx, self.MAX_SIZE):
            key = (ref.size(t), ref.ends(t, TRIANGLE))
            self.by_size.setdefault(key[0], []).append(t)
            self.by_size_ends.setdefault(key, []).append(t)

    def make(self, i: int):
        rng = self.rng(i)
        rules = "paper7" if i % 2 == 0 else "groupoid-complete"
        s = rng.choice(self.by_size[rng.randint(1, self.MAX_SIZE)])
        ends = ref.ends(s, TRIANGLE)
        if rng.random() < 0.1:
            sizes = list(self.by_size)
            while True:
                t = rng.choice(self.by_size[rng.choice(sizes)])
                if ref.ends(t, TRIANGLE) != ends:
                    break
        else:
            sizes = [n for n in self.by_size if (n, ends) in self.by_size_ends]
            t = rng.choice(self.by_size_ends[(rng.choice(sizes), ends)])
        return s, t, rules

    def run(self, inp):
        s, t, rules = inp
        rs = _rules(rules)
        verdict = self.api.decide_rw_equal(s, t, rs, self.ctx)
        replayed = None
        if isinstance(verdict, Equal):
            replayed = self.api.replay_derivation(verdict.witness, rs, self.ctx)
        return verdict, replayed, self.api.oracle_equal(s, t, self.ctx)

    def check(self, inp, out, full):
        s, t, rules = inp
        verdict, replayed, oracle_says = out
        expected = ref.equal(s, t, TRIANGLE)
        problems = []
        if oracle_says != expected:
            problems.append(f"oracle_equal says {oracle_says}, reference says {expected}")
        if isinstance(verdict, Equal) != expected or not isinstance(verdict, (Equal, NotEqual)):
            problems.append(f"verdict {type(verdict).__name__}, reference says {expected}")
        lines = [f"{ref.fmt(s)} ~ {ref.fmt(t)} {rules}: {type(verdict).__name__}"]
        if isinstance(verdict, Equal):
            w = verdict.witness
            if replayed is not True:
                problems.append("witness does not replay")
            if w.start != s:
                problems.append("witness does not start at s")
            bad = ref.check_steps(s, t, _step_tuples(w.steps), rules, TRIANGLE)
            if bad:
                problems.append(f"witness: {bad}")
            lines += _step_lines(w.steps)
        elif isinstance(verdict, NotEqual):
            lines.append(verdict.reason)
            differ = ref.ends(s, TRIANGLE) != ref.ends(t, TRIANGLE)
            if verdict.reason != ("endpoint mismatch" if differ else "reduced words differ"):
                problems.append(f"wrong reason: {verdict.reason}")
        return problems, lines

    def properties(self, inp, out):
        s, t, rules = inp
        if ref.ends(s, TRIANGLE) != ref.ends(t, TRIANGLE):
            verdict = "endpoints-differ"
        elif ref.word(s) != ref.word(t):
            verdict = "words-differ"
        else:
            verdict = "equal"
        return {"verdict": verdict, "rules": rules, "pair_size": ref.size(s) + ref.size(t)}


class DeepTerms(Workload):
    """Large terms built from chains of redundant links, mostly left-nested."""

    name = "deep-terms"
    digest_ops = 5
    trace_ops = 10
    # The structure of op i is fixed by i % 10, so every seed sees the same
    # mix; the seed picks the atoms and the order of the links. Each slot is
    # (chunks, rules, strategy, nesting of the chunks). Four identical
    # middle slots hold the median and two identical largest ones hold the
    # 90th percentile, so neither sits on a step between unlike slots.
    SLOTS = (
        (3, "paper7", "leftmost-outermost", "balanced"),
        (4, "paper7", "leftmost-innermost", "left"),
        (4, "paper7", "leftmost-innermost", "left"),
        (4, "paper7", "leftmost-innermost", "left"),
        (4, "paper7", "leftmost-innermost", "left"),
        (5, "groupoid-complete", "leftmost-outermost", "left"),
        (6, "groupoid-complete", "leftmost-innermost", "balanced"),
        (7, "paper7", "leftmost-innermost", "left"),
        (7, "paper7", "leftmost-innermost", "left"),
        # Last, so that op -1, the warm-up op inside set-up time, is small.
        (2, "groupoid-complete", "leftmost-innermost", "left"),
    )
    # One chunk's links, shuffled per chunk: the counts are fixed so that
    # the amount of redundancy, and with it the cost, varies little by seed.
    # Each chunk is a chain of 12 links, about 55 nodes.
    LINKS = ("plain",) * 4 + ("ss", "ss", "tlr", "tlr", "trr", "sr", "pair", "pair")
    # Half the links step straight back along the previous letter, as a
    # random walk on the triangle would on average; the pattern is fixed
    # because where the inverse pairs fall decides much of the cost.
    BACKS = (False, False, True, False, True, True, False, True, False, False, True, True)
    CHUNK_SHAPES = ("left", "left", "right", "balanced", "left")
    CHUNK_WRAPS = (None, "ss", None, "unit", None)

    def setup(self) -> None:
        self.ctx = triangle_context()

    def make(self, i: int):
        rng = self.rng(i)
        n_chunks, rules, strategy, nesting = self.SLOTS[i % len(self.SLOTS)]
        chunks = []
        x = rng.choice("abc")
        for j in range(n_chunks):
            kinds = rng.sample(self.LINKS, len(self.LINKS))
            chunk, y = _chain(rng, x, kinds, self.CHUNK_SHAPES[j % 5], TRIANGLE, self.BACKS)
            wrap = self.CHUNK_WRAPS[j % 5]
            if wrap == "ss":
                chunk = Sym(Sym(chunk))
            elif wrap == "unit":
                chunk = Trans(_refl(x), chunk)
            chunks.append(chunk)
            x = y
        return _fold(chunks, nesting), rules, strategy

    def run(self, inp):
        t, rules, strategy = inp
        rs = _rules(rules)
        nf, trace = self.api.normalize(t, rs, self.ctx, strategy)
        verdict = self.api.decide_rw_equal(t, nf, rs, self.ctx)
        replayed = None
        if isinstance(verdict, Equal):
            replayed = self.api.replay_derivation(verdict.witness, rs, self.ctx)
        return nf, trace, verdict, replayed

    def check(self, inp, out, full):
        t, rules, strategy = inp
        nf, trace, verdict, replayed = out
        problems = []
        if ref.word(nf) != ref.word(t) or ref.ends(nf, TRIANGLE) != ref.ends(t, TRIANGLE):
            problems.append("normal form changed the reduced word")
        if not ref.is_normal(nf, rules, TRIANGLE):
            problems.append("normal form still has a redex")
        if trace.start != t or trace.end != nf:
            problems.append("normalization trace does not run from t to its normal form")
        if not isinstance(verdict, Equal):
            problems.append(f"term and its normal form judged {type(verdict).__name__}")
            return problems, []
        if replayed is not True:
            problems.append("witness does not replay")
        if verdict.witness.start != t or verdict.witness.end != nf:
            problems.append("witness does not run from t to its normal form")
        lines = [f"{rules} {strategy} {ref.fmt(t)}"]
        if full:
            for what, d, end in (("trace", trace, nf), ("witness", verdict.witness, nf)):
                bad = ref.check_steps(t, end, _step_tuples(d.steps), rules, TRIANGLE)
                if bad:
                    problems.append(f"{what}: {bad}")
                lines += _step_lines(d.steps)
        return problems, lines

    def properties(self, inp, out):
        t, rules, strategy = inp
        props = {"size": ref.size(t), "depth": ref.depth(t), "rules": rules, "strategy": strategy}
        if out is not None:
            props["normalize_steps"] = len(out[1].steps)
            if isinstance(out[2], Equal):
                props["witness_steps"] = len(out[2].witness.steps)
        return props


class TowerLaws(Workload):
    """``run_laws(ctx, level, 10, seed_i)`` with the level cycling over 2-6."""

    name = "tower-laws"
    digest_ops = 25
    trace_ops = 50
    SAMPLES = 10
    LEVELS = (2, 3, 4, 5, 6)
    # The rule witnessing each law, in the order pathrw reports the laws.
    SHAPES = {
        "assoc": "tt",
        "left-unit": "tlr",
        "right-unit": "trr",
        "left-inverse": "tr",
        "right-inverse": "tsr",
    }

    def setup(self) -> None:
        self.ctx = triangle_context()

    def make(self, i: int):
        return self.LEVELS[i % len(self.LEVELS)], self.rng(i).randrange(2**31)

    def run(self, inp):
        level, seed = inp
        return self.api.run_laws(self.ctx, level, self.SAMPLES, seed)

    def check(self, inp, out, full):
        level, seed = inp
        problems = []
        if len(out.reports) != 5 * self.SAMPLES:
            problems.append(f"{len(out.reports)} checks, expected {5 * self.SAMPLES}")
        if out.failures:
            problems.append(f"{len(out.failures)} law checks failed")
        lines = [f"level {level} seed {seed}"]
        for report in out.reports:
            bad = self._shape_problem(report, level)
            if bad:
                problems.append(f"{report.law}: {bad}")
            if full:
                lines.append(" ".join([report.law, *map(ref.fmt, report.inputs), ref.fmt(report.witness.end)]))
        return problems, lines

    def _shape_problem(self, report, level: int) -> str | None:
        """Check the witness is the law's single rule step, by term shape."""
        w = report.witness
        rule = self.SHAPES[report.law] + (str(level) if level > 1 else "")
        if report.level != level or w.level != level:
            return "wrong level"
        if len(w.steps) != 1 or w.steps[0].rule != rule or w.steps[0].position != ():
            return "witness is not one root step of the law's rule"
        if w.steps[0].direction != "forward":
            return "witness step is not forward"
        start, end = w.start, w.end
        s = report.inputs[0]
        if report.law == "assoc":
            s, r, t = report.inputs
            ok = start == Trans(Trans(s, r), t) and end == Trans(s, Trans(r, t))
        elif report.law == "left-unit":
            ok = isinstance(start, Trans) and isinstance(start.left, Refl) and start.right == s and end == s
        elif report.law == "right-unit":
            ok = isinstance(start, Trans) and isinstance(start.right, Refl) and start.left == s and end == s
        elif report.law == "left-inverse":
            ok = start == Trans(s, Sym(s)) and isinstance(end, Refl)
        else:
            ok = start == Trans(Sym(s), s) and isinstance(end, Refl)
        return None if ok else "witness does not have the law's shape"

    def properties(self, inp, out):
        return {"level": str(inp[0])}


class CliMix(Workload):
    """A seeded mix of CLI subcommands on generated ``.pth`` scripts."""

    name = "cli-mix"
    digest_ops = 60
    trace_ops = 100
    SCRIPTS = 6
    PATHS = 12  # p0..p11; each odd path is a redundant variant of the one before
    # Each block of 100 ops runs every command exactly its weight's times, in
    # an order the seed shuffles, so the mix is the same in every run.
    COMMANDS = {
        "normalize": 20,
        "normalize-json": 15,
        "equal-json": 25,
        "oracle": 10,
        "laws": 12,
        "explain": 15,
        "confluence": 3,
    }
    BLOCK = 100

    def setup(self) -> None:
        self.atoms = {**TRIANGLE, **LAMBDA_ATOMS}
        self.scripts = []
        for k in range(self.SCRIPTS):
            rng = random.Random(f"{self.name}:{self.seed}:script{k}")
            paths = {}
            for j in range(self.PATHS // 2):
                # The shape of each path is fixed by j, so every seed's scripts
                # cost about the same; the seed picks atoms and link order.
                kinds = [DECORATIONS[(j + m) % len(DECORATIONS)] for m in range(1 + j % 4)]
                x = rng.choice("abc")
                term, y = _chain(rng, x, rng.sample(kinds, len(kinds)), ("left", "right")[j % 2], TRIANGLE)
                paths[f"p{2 * j}"] = term
                paths[f"p{2 * j + 1}"] = self._variant(rng, term, x, y, j % 3)
            paths["f0"] = Trans(Atom("al"), Sym(Atom("al")))
            paths["f1"] = _refl("m")
            text = TRIANGLE_SCRIPT + LAMBDA_SCRIPT
            text += "".join(f"path {name} := {ref.fmt(t)}\n" for name, t in paths.items())
            path = self.workdir / f"script{k}.pth"
            path.write_text(text, encoding="utf-8")
            self.scripts.append((str(path), paths))

    @staticmethod
    def _variant(rng: random.Random, term, x: str, y: str, kind: int):
        """A term with the same reduced word as ``term``."""
        if kind == 0:
            return Sym(Sym(term))
        if kind == 1:
            return Trans(_refl(x), Trans(term, _refl(y)))
        detour, z = _letter(rng, y, TRIANGLE)
        return Trans(Trans(term, detour), Sym(detour))

    def make(self, i: int):
        block, slot = divmod(i, self.BLOCK)
        order = [command for command, n in self.COMMANDS.items() for _ in range(n)]
        random.Random(f"{self.name}:{self.seed}:block{block}").shuffle(order)
        command = order[slot]
        nth = block + order[:slot].count(command)  # cycles the fixed choices below
        rng = self.rng(i)
        k = rng.randrange(len(self.scripts))
        file, paths = self.scripts[k]
        names = sorted(paths)
        rules = rng.choice(("paper7", "groupoid-complete"))
        if command == "normalize":
            strategy = rng.choice(("leftmost-innermost", "leftmost-outermost"))
            argv = ["normalize", file, rng.choice(names), "--rules", rules, "--strategy", strategy]
        elif command == "normalize-json":
            argv = ["normalize", file, rng.choice(names), "--rules", rules, "--json"]
        elif command == "equal-json":
            if rng.random() < 0.5:
                j = 2 * rng.randrange(self.PATHS // 2)
                p, q = f"p{j}", f"p{j + 1}"
            else:
                p, q = rng.choice(names), rng.choice(names)
            argv = ["equal", file, p, q, "--rules", rules, "--json"]
        elif command == "oracle":
            argv = ["oracle", file, rng.choice(names)]
        elif command == "laws":
            argv = ["laws", file, "--level", str(1 + nth % 3), "--samples", "10",
                    "--seed", str(rng.randrange(1000))]
        elif command == "explain":
            argv = ["explain", rng.choice(ref.PAPER7_RULES)]
        else:
            rules = ("paper7", "groupoid-complete")[nth % 2]
            argv = ["confluence", file, "--rules", rules, "--max-size", "6" if nth % 3 == 2 else "5"]
        return command, argv, paths, k

    def run(self, inp):
        command, argv, paths, k = inp
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.api.cli_main(argv)
        text = stdout.getvalue()
        doc = replayed = None
        if "--json" in argv and code == 0:
            doc = self.api.doc_from_json(text)
            replayed = self.api.replay_document(doc)
        return code, text, stderr.getvalue(), doc, replayed

    def check(self, inp, out, full):
        command, argv, paths, k = inp
        code, text, err, doc, replayed = out
        expected_code, expected_text, expected_doc = getattr(
            self, "_expect_" + command.replace("-", "_")
        )(argv, paths)
        problems = []
        if code != expected_code:
            problems.append(f"{argv[0]}: exit {code}, expected {expected_code} ({err.strip()})")
        elif expected_text is not None and text != expected_text:
            problems.append(f"{argv[0]}: output differs from the reference")
        elif command == "explain" and not text.startswith(f"{argv[1]}: "):
            problems.append("explain: output does not open with the rule")
        if expected_doc and code == 0:
            problems += self._check_doc(doc, replayed, *expected_doc)
        if command == "confluence" and code == 0:
            problems += self._check_confluence(argv, text)
        shown = [f"script{k}" if arg == self.scripts[k][0] else arg for arg in argv]
        return problems, [" ".join(shown), str(code), text]

    def _check_doc(self, doc, replayed, start, end, trace) -> list[str]:
        problems = []
        if replayed is not True:
            problems.append("document does not replay")
        if doc["start"] != ref.fmt(start) or doc["end"] != ref.fmt(end):
            problems.append("document endpoints differ from the reference")
        if trace is not None and [(s["rule"], tuple(s["position"])) for s in doc["steps"]] != [
            (rule, pos) for rule, pos, _ in trace
        ]:
            problems.append("document steps differ from the reference trace")
        return problems

    def _check_confluence(self, argv, text) -> list[str]:
        rules, size = argv[3], argv[5]
        m = re.fullmatch(rf"confluence: rules {rules}, max size {size}, (\d+) peaks", text.splitlines()[-1])
        if m is None:
            return ["confluence summary line is malformed"]
        peaks = int(m.group(1))
        if rules == "groupoid-complete" and peaks:
            return [f"groupoid-complete reported {peaks} peaks"]
        if text.count("peak: ") != peaks:
            return ["confluence peak count does not match the peaks listed"]
        return []

    @staticmethod
    def _position(pos) -> str:
        return "root" if not pos else ".".join(map(str, pos))

    def _expect_normalize(self, argv, paths):
        term = paths[argv[2]]
        nf, trace = ref.normalize(term, argv[4], argv[6], self.atoms)
        lines = [f"start:  {ref.fmt(term)}"]
        for i, (rule, pos, after) in enumerate(trace, start=1):
            lines.append(f"  {i}. {rule:>5} @ {self._position(pos):<8} => {ref.fmt(after)}")
        lines.append(f"normal: {ref.fmt(nf)}  [{len(trace)} steps]")
        return 0, "\n".join(lines) + "\n", None

    def _expect_normalize_json(self, argv, paths):
        term = paths[argv[2]]
        nf, trace = ref.normalize(term, argv[4], "leftmost-innermost", self.atoms)
        return 0, None, (term, nf, trace)

    def _expect_equal_json(self, argv, paths):
        p, q = paths[argv[2]], paths[argv[3]]
        if ref.equal(p, q, self.atoms):
            return 0, None, (p, q, None)
        differ = ref.ends(p, self.atoms) != ref.ends(q, self.atoms)
        return 1, f"not equal: {'endpoint mismatch' if differ else 'reduced words differ'}\n", None

    def _expect_oracle(self, argv, paths):
        term = paths[argv[2]]
        letters = ref.word(term)
        rendered = " ".join(n + ("" if o == 1 else "^-1") for n, o in letters) or "(empty)"
        src, tgt = ref.ends(term, self.atoms)
        return 0, f"word:   {rendered}\nsource: {src}\ntarget: {tgt}\n", None

    def _expect_laws(self, argv, paths):
        level, samples, seed = argv[3], int(argv[5]), argv[7]
        rows = "".join(f"  {law:<14} passed {samples:>5}  failed {0:>5}\n" for law in TowerLaws.SHAPES)
        return 0, rows + f"laws: level {level}, seed {seed}, {5 * samples} checks, 0 failures\n", None

    def _expect_explain(self, argv, paths):
        return 0, None, None  # the text is checked for its opening

    def _expect_confluence(self, argv, paths):
        return 0, None, None  # the text is checked by _check_confluence

    def properties(self, inp, out):
        return {"command": inp[0]}


WORKLOADS = {cls.name: cls for cls in (PairSweep, DeepTerms, TowerLaws, CliMix)}
