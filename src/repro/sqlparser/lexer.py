"""The SQL lexer: a single compiled-regex scanner.

The lexer turns a SQL string into a list of :class:`~repro.sqlparser.tokens.Token`
objects.  It supports:

* line comments (``-- …``) and block comments (``/* … */``),
* single-quoted string literals with doubled-quote escaping,
* double-quoted and backtick-quoted identifiers with doubled-quote escaping
  (``"a""b"`` lexes as the identifier ``a"b``),
* integer and decimal literals (with optional exponent),
* the keyword set of :mod:`repro.sqlparser.tokens`,
* positional parameters (``?`` and ``$1``-style).

The scanner is one master regular expression with named alternatives,
driven by :meth:`re.Pattern.finditer`.  Its last alternative matches any
single character, so the matches tile the input and a position no real
alternative matches surfaces as an ``ERROR`` match — a lexical error at
that index, never silently skipped.  It is token-compatible with the
original hand-rolled character loop (kept as a fixture in
``tests/test_lexer_equivalence.py``).  Every cold statement is lexed once,
so a token costs one match, a lookup on its alternative's name and one
:class:`~repro.sqlparser.tokens.Token`, and the regex scan is the larger part.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError
from repro.sqlparser.tokens import KEYWORDS, Token, TokenType

#: One alternative per token class.  Order is significant: numbers must win
#: over the ``.`` punctuation (``.5`` is a literal) and over operators, and
#: comments/strings must win over the ``-``/``/`` operators.  The number
#: exponent deliberately tolerates a missing digit sequence (``1e``) to stay
#: byte-compatible with the historical scanner.  ``0x…`` must win over the
#: number alternative: the engine has no hexadecimal literals, and letting
#: ``0x10`` silently split into NUMBER ``0`` + identifier ``x10`` produced a
#: bogus-but-"successful" query instead of an error (a PR-5 bug fix).
#: ``ERROR`` comes last and matches any one character, so it only wins
#: where nothing else does.
_SCAN = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<LINE_COMMENT>--[^\n]*\n?)
    | (?P<BLOCK_COMMENT>/\*(?:[\s\S]*?\*/)?)
    | (?P<STRING>'(?:[^']|'')*'(?!'))
    | (?P<DQUOTED>"(?:[^"]|"")*")
    | (?P<BQUOTED>`(?:[^`]|``)*`)
    | (?P<HEX>0[xX]\w*)
    | (?P<NUMBER>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)
    | (?P<PARAMETER>\?|\$\d+)
    | (?P<WORD>[^\W\d]\w*)
    | (?P<OPERATOR><>|!=|>=|<=|\|\||[=<>+\-*/%])
    | (?P<PUNCTUATION>[(),.;])
    | (?P<ERROR>[\s\S])
    """,
    re.VERBOSE,
).finditer

#: Alternatives that produce no token.
_SKIPPED = frozenset({"WS", "LINE_COMMENT"})

#: Alternatives whose text is the token value as-is.
_VERBATIM = {
    name: TokenType[name] for name in ("PUNCTUATION", "NUMBER", "OPERATOR", "PARAMETER")
}

#: Quoted alternatives: the token type and the doubled / single quote pair.
_QUOTED = {
    "STRING": (TokenType.STRING, "''", "'"),
    "DQUOTED": (TokenType.IDENTIFIER, '""', '"'),
    "BQUOTED": (TokenType.IDENTIFIER, "``", "`"),
}


def _raise_unmatched(sql: str, index: int) -> None:
    """Diagnose why no alternative matched at *index*."""
    char = sql[index]
    if char == "'":
        raise LexerError("unterminated string literal", index)
    if char in ('"', "`"):
        raise LexerError("unterminated quoted identifier", index)
    raise LexerError(f"unexpected character {char!r}", index)


def tokenize(sql: str) -> List[Token]:
    """Tokenize *sql*, returning a token list terminated by an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    # Local bindings: the loop body runs once per token over every campaign
    # query, so global/attribute lookups are hoisted out of it.
    keywords = KEYWORDS
    verbatim = _VERBATIM.get
    skipped = _SKIPPED
    make = Token
    KEYWORD = TokenType.KEYWORD
    IDENTIFIER = TokenType.IDENTIFIER

    for found in _SCAN(sql):
        kind = found.lastgroup
        if kind in skipped:
            continue
        text = found.group()
        if kind == "WORD":
            upper = text.upper()
            if upper in keywords:
                append(make(KEYWORD, upper, found.start()))
            else:
                append(make(IDENTIFIER, text, found.start()))
            continue
        token_type = verbatim(kind)
        if token_type is not None:
            append(make(token_type, text, found.start()))
        elif kind in _QUOTED:
            token_type, doubled, single = _QUOTED[kind]
            append(make(token_type, text[1:-1].replace(doubled, single), found.start()))
        elif kind == "ERROR":
            _raise_unmatched(sql, found.start())
        elif kind == "HEX":
            raise LexerError(
                f"hexadecimal literals are not supported: {text!r}", found.start()
            )
        elif len(text) < 4 or not text.endswith("*/"):  # BLOCK_COMMENT
            raise LexerError("unterminated block comment", found.start())

    append(make(TokenType.EOF, "", len(sql)))
    return tokens
