"""Exception types shared across the library.

Every error carries a stable machine-readable ``code`` so callers (and the
command line front end) can react without string matching on messages.
"""

from __future__ import annotations


class RamseyLabError(Exception):
    """Base class for all library errors."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ValidationError(RamseyLabError):
    """Rejected input: bad index, malformed structure, unsupported parameter."""


class ParseError(RamseyLabError):
    """A text payload (graph, hypergraph, certificate) could not be parsed."""

    def __init__(self, message: str):
        super().__init__("PARSE_ERROR", message)


class VerificationError(RamseyLabError):
    """A witness or certificate failed re-verification.

    ``check`` names the first violated check.
    """

    def __init__(self, check: str, message: str):
        super().__init__("VERIFY_FAILED", message)
        self.check = check


class BudgetExceededError(RamseyLabError):
    """A search ran out of branch nodes, or a scan reached its cap, before
    reaching a definitive answer.

    ``partial`` holds whatever was established before the cutoff (bounds,
    best witness found, node counts; ``cap`` when the cap stopped it).
    """

    def __init__(self, message: str, **partial):
        super().__init__("BUDGET_EXCEEDED", message)
        self.partial = partial

