"""Exception types shared across the package.

Every error about a term names the subterm it found by position: it is a
``PositionedError``, which carries ``.what`` and ``.position`` and reads
``<what> at position <p>``. Only this module writes that text.
"""

from __future__ import annotations


class PathRwError(Exception):
    """Base class for every error raised by this package."""


class ContextError(PathRwError):
    """A context violates its declaration invariants."""


class PositionedError(PathRwError):
    """An error at a term position: ``.what`` was found at ``.position``; the text is ``<what> at position <p>``."""

    def __init__(self, what: str, position: tuple[int, ...] = ()):
        self.what = what
        self.position = position
        super().__init__(f"{what} at position {fmt_position(position)}")


class UnknownAtom(PositionedError):
    """A path term names a step atom that the context does not declare."""


class UnknownElement(PositionedError):
    """A reflexivity node wraps an element that the context does not declare."""


class BadObject(PositionedError):
    """A reflexivity node wraps an object below level 0."""

    def __init__(self, level: int, position: tuple[int, ...] = ()):
        super().__init__(f"object level {level} is below 0", position)


class NotAnObject(PositionedError):
    """A reflexivity node holds something that is no ``Object``."""


class BadStep(PositionedError):
    """A recorded-step atom holds something with no level, ``before`` or ``after``: no rewrite step."""


class EndpointMismatch(PositionedError):
    """Two paths were chained whose endpoints do not meet; the text goes on ``: <left> != <right>``."""

    def __init__(self, position: tuple[int, ...], left_target, right_source):
        super().__init__("endpoint mismatch", position)
        self.args = (f"{self}: {left_target} != {right_source}",)


class UnresolvedLambda(PositionedError):
    """A congruence former needs a lambda value the context does not supply."""


class UnknownRule(PathRwError):
    """A rule name that no rule set defines."""


class NoRedex(PositionedError):
    """A rule was applied at a position where its pattern does not match."""


class LevelMismatch(PathRwError):
    """An operation mixed path terms from different tower levels."""


class ChainMismatch(PathRwError):
    """Two derivations were concatenated but do not meet end-to-start."""


class NotAnAxiomInstance(PathRwError):
    """A tagged atom's endpoints do not fit the shape its tag demands."""


class ScriptError(PathRwError):
    """Base class for script front-end errors; carries a source location."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class DslSyntaxError(ScriptError):
    pass


class UndeclaredName(ScriptError):
    pass


class TypeMismatch(ScriptError):
    pass


def fmt_position(position: tuple[int, ...]) -> str:
    """Render a tree position; the empty sequence is the root."""
    return "root" if not position else ".".join(str(i) for i in position)
