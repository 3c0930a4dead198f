"""Exception types shared across the package."""

from __future__ import annotations


class PathRwError(Exception):
    """Base class for every error raised by this package."""


class ContextError(PathRwError):
    """A context violates its declaration invariants."""


class UnknownAtom(PathRwError):
    """A path term names a step atom that the context does not declare."""

    def __init__(self, name: str, position: tuple[int, ...] = ()):
        self.name = name
        self.position = position
        super().__init__(f"unknown atom '{name}' at position {fmt_position(position)}")


class UnknownElement(PathRwError):
    """A reflexivity node wraps an element that the context does not declare."""

    def __init__(self, name: str, position: tuple[int, ...] = ()):
        self.name = name
        self.position = position
        super().__init__(f"unknown element '{name}' at position {fmt_position(position)}")


class BadObject(PathRwError):
    """A reflexivity node wraps an object below level 0."""

    def __init__(self, level: int, position: tuple[int, ...] = ()):
        self.position = position
        super().__init__(f"object level {level} is below 0 at position {fmt_position(position)}")


class NotAnObject(PathRwError):
    """A reflexivity node holds something that is no ``Object``."""

    def __init__(self, obj: object, position: tuple[int, ...] = ()):
        self.position = position
        super().__init__(f"not an object: {obj!r} at position {fmt_position(position)}")


class BadStep(PathRwError):
    """A recorded-step atom holds something with no level, ``before`` or ``after``: no rewrite step."""

    def __init__(self, step: object, position: tuple[int, ...] = ()):
        self.position = position
        super().__init__(f"not a rewrite step: {step!r} at position {fmt_position(position)}")


class EndpointMismatch(PathRwError):
    """Two paths were chained whose endpoints do not meet."""

    def __init__(self, position: tuple[int, ...], left_target, right_source):
        self.position = position
        self.left_target = left_target
        self.right_source = right_source
        super().__init__(
            f"endpoint mismatch at position {fmt_position(position)}: "
            f"{left_target} != {right_source}"
        )


class UnresolvedLambda(PathRwError):
    """A congruence former needs a lambda value the context does not supply."""

    def __init__(self, what: str, position: tuple[int, ...] = ()):
        self.what = what
        self.position = position
        super().__init__(f"{what} at position {fmt_position(position)}")


class UnknownRule(PathRwError):
    """A rule name that no rule set defines."""


class NoRedex(PathRwError):
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
