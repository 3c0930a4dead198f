"""pathrw: a rewrite engine and equivalence checker for computational paths.

Paths are sequences of rewrites between elements of a type. The engine
contracts the redundancy-removal rules over reflexivity, symmetry, and
transitivity, decides path equality with explicit replayable derivation
witnesses, and verifies the weak category/groupoid laws at every level of
the tower of paths-between-paths.
"""

from types import ModuleType as _ModuleType

from .engine import (
    Derivation, Equal, NotEqual, RewriteStep, canonical_derivation, concat_derivations, contract_once,
    decide_rw_equal, derivation_to_path, invert_derivation, normalize, replay_derivation,
)
from .errors import PathRwError
from .groupoid import LawReport, LawSuiteReport, check_assoc, check_inverses, check_units, compose, run_laws
from .lam import Abs, App, LambdaTerm, Var, alpha_eq, substitute, validate_axiom_atom
from .oracle import Peak, ReducedWord, check_confluence, enumerate_terms, oracle_equal, read_back, word
from .rules import (
    GROUPOID_COMPLETE, PAPER7, RuleSchema, RuleSet, explain_rule, match_redexes, rule_set, step_name,
)
from .script import Script, parse_lambda_expr, parse_path_expr, parse_script
from .serialize import derivation_from_doc, derivation_to_doc, replay_document
from .terms import (
    Atom, AtomDecl, Context, Mu, Nu, Object, PathTerm, Refl, StepAtom, Sym, Trans, WellFormednessReport, Xi,
    endpoints, format_term, level, mu_measure, path_obj, size, validate,
)

__version__ = "0.1.0"

# Everything imported above, so the list cannot drift from the imports.
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
