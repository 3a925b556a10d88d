"""Exception vocabulary shared by all kpvcr modules.

Every library error derives from KpvcrError so the CLI can map failures
to its exit-code contract without enumerating call sites.
"""

from __future__ import annotations


class KpvcrError(Exception):
    """Base class for all library errors."""


class InputError(KpvcrError):
    """Malformed arguments: unknown vertex ids, bad parameters, parse failures."""


class InstanceFormatError(InputError):
    """Instance or witness file rejected by the parser.

    `code` is a stable machine-readable tag (syntax, unknown-vertex,
    duplicate-directive, invalid-cover, too-large), `line` the 1-based
    source line.
    """

    def __init__(self, message: str, *, code: str, line: int | None = None):
        super().__init__(message)
        self.code = code
        self.line = line


class UnsupportedParameterError(KpvcrError):
    """Raised when an operation is asked about a parameter range it does not
    support, notably rigidity and reachability questions with k <= 3."""


class ResourceLimitError(KpvcrError):
    """Brute-force search exceeded its state budget.

    `count` carries the number of states visited before giving up.
    """

    def __init__(self, message: str, *, count: int):
        super().__init__(message)
        self.count = count


class LogicError(KpvcrError):
    """Caller violated an operation's contract (e.g. asked for a witness on a
    NO instance), or an internal invariant failed."""
