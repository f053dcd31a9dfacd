"""Exception types shared across the package."""

from __future__ import annotations

from math import log10

__all__ = ["DomainError", "CapacityError", "NotEvenError", "FormatError"]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain.

    `index` is the position of the offending item of a sequence, if any.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class CapacityError(ValueError):
    """An argument exceeds a cap that keeps runtimes desk-scale."""


class NotEvenError(DomainError):
    """A residue function failed the evenness test.

    `witness` is a residue n with f(n) != f(gcd(n, r)).
    """

    def __init__(self, message: str, witness: int):
        super().__init__(message)
        self.witness = witness


class FormatError(ValueError):
    """A function file could not be parsed.

    `line` is the 1-based offending line number for text input, None when
    the problem is structural (e.g. a missing JSON field).
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _int_text(n: int) -> str:
    """n for an error message: in full up to 40 digits, else by its digit
    count, as str() of a huge n is long and past CPython's limit raises."""
    m = abs(n)
    if m < 10**40:
        return str(n)
    k = int((m.bit_length() - 1) * log10(2)) + 1  # m has k or k + 1 digits
    return f"{'-' if n < 0 else ''}<integer of {k + (m >= 10**k)} digits>"
