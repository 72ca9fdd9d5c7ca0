"""Shared diagnostic records for every compiler stage.

All parsers and checkers in this package report problems as :class:`Diagnostic`
values carrying the position where the offending source text starts, if any.
Fatal problems are raised as :class:`CompileError`, which bundles the full
diagnostic list so callers can print everything that was found, not just the
first failure.
"""
from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Start of a source region: 1-based line and column (a tab is one column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def compare_by(key):
    """``__eq__``, ``__ne__`` and ``__hash__`` for a record equal only to
    records of its type with the same ``key(record)`` (``tuple`` has its own
    ``__ne__``, and ``__eq__`` alone would unset ``__hash__``)."""
    def __eq__(self, other) -> bool:
        return type(other) is type(self) and key(self) == key(other)

    def __ne__(self, other) -> bool:
        return not __eq__(self, other)

    def __hash__(self) -> int:
        return hash(key(self))

    return __eq__, __ne__, __hash__


def compare_first(n: int):
    """:func:`compare_by` the first ``n`` fields of a NamedTuple record."""
    return compare_by(lambda record: record[:n])


class Diagnostic(NamedTuple):
    severity: str            # "error" or "warning"
    kind: str                # stable machine-readable category
    message: str
    span: Span | None = Span(1, 1)     # None: about no one place in a source

    def render(self) -> str:
        at = f" at {self.span}" if self.span is not None else ""
        return f"{self.severity} [{self.kind}]{at}: {self.message}"


def error(kind: str, message: str, span: Span | None) -> Diagnostic:
    return Diagnostic("error", kind, message, span)


def warning(kind: str, message: str, span: Span | None) -> Diagnostic:
    return Diagnostic("warning", kind, message, span)


class CompileError(Exception):
    """Raised when a source artifact cannot be compiled.

    Carries every diagnostic collected before the failure was declared.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0].render() if self.diagnostics else "unknown error"
        extra = f" (+{len(self.diagnostics) - 1} more)" if len(self.diagnostics) > 1 else ""
        super().__init__(first + extra)


class SpecSyntaxError(CompileError):
    """A specification expression could not be parsed."""


class SpecTypeError(CompileError):
    """A specification parsed but is not well-typed against the type graph.

    ``disjunct`` holds the rendered unsatisfiable conjunction and ``conflict``
    the minimal subset of its atoms that cannot hold together.
    """

    def __init__(self, diagnostics: list[Diagnostic], disjunct: str = "",
                 conflict: tuple[str, ...] = ()):
        super().__init__(diagnostics)
        self.disjunct = disjunct
        self.conflict = conflict

