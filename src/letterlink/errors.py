"""Exception hierarchy shared across the package.

ParseError is kept separate from the rest so the CLI can map it to a
distinct exit code (2, versus 1 for validation/undefinedness errors).
"""

from __future__ import annotations

import copyreg


class LetterLinkError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Rebuild from the message and attributes without calling __init__,
        # whose parameters differ from ``args`` in most subclasses, so that
        # an error keeps its type, message and attributes through pickle
        # (and so from a forked child to its caller, as in
        # ``selfcheck.run_all``).
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(LetterLinkError):
    def __init__(self, message: str, position: int, expected: str | None = None):
        self.message = message
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class InvalidArgument(LetterLinkError, ValueError):
    """A library call got an argument outside its domain."""


class UnknownGenerator(LetterLinkError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown generator {name!r}")


class InvalidSymbol(LetterLinkError):
    """A child's free letter coincides with its parent's."""


class NonzeroCount(LetterLinkError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"list does not cobound: count={count}")


class SameGenerator(LetterLinkError):
    """Linking requires the cobounded and target lists to use distinct letters."""


class TooLarge(LetterLinkError):
    """Input exceeds the configured size bound for an exhaustive operation."""


class UndefinedInvariant(LetterLinkError):
    """The invariant is not defined on this word: a sub-list fails to cobound.

    Carries the first offending sub-symbol (leftmost, innermost) and its count.
    """

    def __init__(self, subsymbol, count: int):
        self.subsymbol = subsymbol
        self.count = count
        super().__init__(f"undefined at {subsymbol} (count={count})")


class UndefinedReduction(LetterLinkError):
    def __init__(self, vertex: str, detail: str = ""):
        self.vertex = vertex
        msg = f"reduction undefined at vertex {vertex}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotATree(LetterLinkError):
    """Graph input must be connected and acyclic."""


class InvalidEdge(LetterLinkError):
    """Edge endpoints carry the same free letter (outside ambient mode)."""


class LabelMismatch(LetterLinkError):
    """Graph vertex labels and tree leaf labels do not correspond."""


class InvalidMultidegree(LetterLinkError):
    """A multidegree has a generator that is not a nonempty string, a count
    that is not a nonnegative int, or no positive count."""


class MixedGrading(LetterLinkError):
    """Terms of a Lie element must share one weight."""


class NotInGamma(LetterLinkError):
    """A lower-weight functional is nonzero, so the word is too shallow.

    Carries the offending generator sequence.
    """

    def __init__(self, functional):
        self.functional = functional
        seq = ",".join(functional)
        super().__init__(f"word is not deep enough: d_({seq}) is nonzero")


class InconsistentSystem(LetterLinkError):
    """The exact linear system has no solution; indicates an implementation bug."""

