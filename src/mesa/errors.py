"""Exception hierarchy shared across the package.

Every failure the engine can signal derives from MesaError so callers (and the
CLI exit-code mapping) can distinguish engine failures from programming errors.
Plain ValueError is reserved for violated function preconditions.
"""

from __future__ import annotations


class MesaError(Exception):
    """Base class for all engine-raised failures."""


class PredicateSyntaxError(MesaError):
    """Predicate DSL parse failure with a byte-accurate location.

    Attributes:
        offset: 0-based byte offset into the UTF-8 encoding of the source.
        expected: token descriptions that would have been legal at offset.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]) -> None:
        self.offset = offset
        self.expected = expected
        hint = ", ".join(sorted(expected)) if expected else "nothing"
        super().__init__(f"{message} at byte {offset} (expected: {hint})")


class CardFileError(MesaError):
    """Card file unreadable, malformed, or schema-violating."""


class RegistryLookupError(MesaError):
    """A card id was requested that the registry does not contain."""


class MissingSignalError(MesaError):
    """The backend has no value for a requested signal or answer."""


class ReplayMissError(MissingSignalError):
    """Strict replay hit a key absent from the cache."""


class CoverageError(MesaError):
    """A behavior script does not cover every key the suite needs."""

    def __init__(self, missing: list[str]) -> None:
        self.missing = list(missing)
        shown = "; ".join(self.missing[:20])
        extra = len(self.missing) - 20
        if extra > 0:
            shown += f"; ... and {extra} more"
        super().__init__(f"script coverage check failed ({len(self.missing)} missing): {shown}")


class SuiteFormatError(MesaError):
    """Benchmark suite file unreadable, malformed, or inconsistent."""


class BankCorruptionError(MesaError):
    """A failure-bank file contains a damaged non-terminal record."""


class StaleTrustError(MesaError):
    """An optimistic trust update found the card file already changed."""


class RemoteBackendError(MesaError):
    """The remote model endpoint failed after all retries."""


class ConfigFileError(MesaError):
    """A CLI config file contains an unknown key or a bad value."""
