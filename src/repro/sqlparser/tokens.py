"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from typing import Optional


class TokenType(enum.Enum):
    """Lexical token classes produced by :mod:`repro.sqlparser.lexer`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"
    EOF = "eof"


#: Reserved words recognised by the parser.  The set covers the SQL subset the
#: simulated DBMSs support: DDL, DML, and SELECT with joins, grouping, set
#: operations, and subqueries.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "OFFSET", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS",
        "NULL", "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
        "OUTER", "CROSS", "ON", "USING", "UNION", "INTERSECT", "EXCEPT",
        "ALL", "DISTINCT", "ASC", "DESC", "INSERT", "INTO", "VALUES",
        "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX", "UNIQUE",
        "PRIMARY", "KEY", "DROP", "IF", "EXISTS", "INT", "INTEGER", "BIGINT",
        "FLOAT", "REAL", "DOUBLE", "PRECISION", "TEXT", "VARCHAR", "CHAR",
        "BOOLEAN", "DATE", "TIMESTAMP", "DECIMAL", "NUMERIC", "CASE", "WHEN",
        "THEN", "ELSE", "END", "CAST", "EXPLAIN", "ANALYZE", "FORMAT",
        "COUNT", "SUM", "AVG", "MIN", "MAX", "ANY", "SOME", "EXTRACT",
        "SUBSTRING", "DEFAULT", "REFERENCES", "FOREIGN", "CONSTRAINT",
        "NATURAL", "CHECK",
    }
)

#: Multi-character operators, longest first so the lexer matches greedily.
MULTI_CHAR_OPERATORS = ("<>", "!=", ">=", "<=", "||")

SINGLE_CHAR_OPERATORS = frozenset("=<>+-*/%")

PUNCTUATION = frozenset("(),.;")


class Token:
    """A single lexical token.

    A plain ``__slots__`` class rather than a frozen dataclass: the lexer
    builds one per token of every cold statement, and a frozen dataclass
    pays an ``object.__setattr__`` per field.  Tokens are never mutated.

    Attributes
    ----------
    type:
        The token class.
    value:
        The raw text for identifiers/operators, the uppercased text for
        keywords, and the literal text for numbers and strings.
    position:
        Character offset of the token's first character in the input.
    """

    __slots__ = ("type", "value", "position")

    def __init__(self, type: TokenType, value: str, position: int) -> None:
        self.type = type
        self.value = value
        self.position = position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.type, self.value, self.position) == (other.type, other.value, other.position)

    def __hash__(self) -> int:
        return hash((self.type, self.value, self.position))

    def __repr__(self) -> str:
        return f"Token(type={self.type!r}, value={self.value!r}, position={self.position!r})"

    def matches_keyword(self, *keywords: str) -> bool:
        """Return whether this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in keywords

    def is_punctuation(self, char: str) -> bool:
        """Return whether this token is the given punctuation character."""
        return self.type is TokenType.PUNCTUATION and self.value == char

    def is_operator(self, *operators: str) -> bool:
        """Return whether this token is one of the given operators."""
        return self.type is TokenType.OPERATOR and self.value in operators

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}({self.value!r}@{self.position})"


EOF_TOKEN_VALUE: Optional[str] = "<eof>"
