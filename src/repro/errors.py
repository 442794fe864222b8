"""Exception hierarchy for the repro (UPlan reproduction) library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Sub-hierarchies mirror the package layout:
errors raised while parsing SQL, planning, executing, converting serialized
plans, or validating unified plans each have a dedicated class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# ---------------------------------------------------------------------------
# Core / unified representation errors
# ---------------------------------------------------------------------------


class UnifiedPlanError(ReproError):
    """Base class for errors concerning the unified plan representation."""


class PlanValidationError(UnifiedPlanError):
    """A unified plan violates a structural or categorical constraint."""


class GrammarError(UnifiedPlanError):
    """A serialized unified plan does not conform to the EBNF grammar."""


class FormatError(UnifiedPlanError):
    """A (de)serialization format problem, e.g. an unknown format name."""


class NamingError(UnifiedPlanError):
    """A DBMS-specific name cannot be mapped or registered."""


# ---------------------------------------------------------------------------
# Converter errors
# ---------------------------------------------------------------------------


class ConversionError(ReproError):
    """A DBMS-specific serialized plan could not be converted to UPlan."""

    def __init__(self, dbms: str, message: str) -> None:
        super().__init__(f"[{dbms}] {message}")
        self.dbms = dbms


# ---------------------------------------------------------------------------
# SQL front-end errors
# ---------------------------------------------------------------------------


class SQLError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SQLError):
    """The SQL lexer encountered an invalid character sequence."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The SQL parser encountered an unexpected token."""

    def __init__(self, message: str, token: object = None) -> None:
        super().__init__(message)
        self.token = token


# ---------------------------------------------------------------------------
# Catalog / storage / execution errors
# ---------------------------------------------------------------------------


class CatalogError(ReproError):
    """A schema object is missing, duplicated, or inconsistent."""


class StorageError(ReproError):
    """A storage-layer invariant was violated."""


class ExecutionError(ReproError):
    """A runtime error while executing a physical plan."""


class PlanningError(ReproError):
    """The optimizer could not produce a physical plan for a query."""


# ---------------------------------------------------------------------------
# Dialect (simulated DBMS) errors
# ---------------------------------------------------------------------------


class DialectError(ReproError):
    """A simulated DBMS rejected a statement or an explain request."""

    def __init__(self, dbms: str, message: str) -> None:
        super().__init__(f"[{dbms}] {message}")
        self.dbms = dbms


class UnsupportedFormatError(DialectError):
    """The requested explain format is not offered by this DBMS."""
