"""Parser for the SQL subset.

The parser consumes tokens from :mod:`repro.sqlparser.lexer` and produces the
AST of :mod:`repro.sqlparser.ast_nodes`.  Statements are parsed by recursive
descent; expressions by precedence climbing (:meth:`Parser._parse_binary`)
with conventional SQL precedence:

``OR`` < ``AND`` < ``NOT`` < comparison / ``IN`` / ``BETWEEN`` / ``LIKE`` /
``IS`` < additive < multiplicative < unary < primary.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union

from repro.errors import ParseError
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.tokens import Token, TokenType

_AGGREGATE_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}

_KEYWORD = TokenType.KEYWORD
_OPERATOR = TokenType.OPERATOR

#: Binding power of each binary operator for precedence climbing; a larger
#: power binds tighter.  Prefix ``NOT`` sits at 3, between ``AND`` and the
#: comparisons; the comparison tail (``IS``, ``[NOT] IN`` / ``BETWEEN`` /
#: ``LIKE``) binds like ``=``.  Unary signs bind tightest of all.
_BINARY_POWER = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "IS": 4, "IN": 4, "BETWEEN": 4, "LIKE": 4, "NOT": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}
_NOT_POWER = 3
_ADDITIVE_POWER = 5
_MAX_POWER = max(_BINARY_POWER.values())

#: The deepest expression the parser accepts, counting both the height of
#: the tree (so a left-deep ``a AND b AND …`` chain's length) and the
#: nesting of parentheses, calls and subqueries, parenthesised set-operation
#: arms and FROM items included (cf. SQLite's ``SQLITE_MAX_EXPR_DEPTH``).
#: The parser, printer, ``estimate_selectivity``, ``compile_expression(_batch)``
#: and ``evaluate`` recurse up to ~4 frames per level, so 200 stays well under
#: Python's default recursion limit.
MAX_EXPRESSION_DEPTH = 200

#: Levels each SELECT adds: planning and running a nested one costs about
#: three expression levels' worth of frames.
_SELECT_DEPTH = 2

_TYPE_KEYWORDS = {
    "INT", "INTEGER", "BIGINT", "FLOAT", "REAL", "DOUBLE", "PRECISION", "TEXT",
    "VARCHAR", "CHAR", "BOOLEAN", "DATE", "TIMESTAMP", "DECIMAL", "NUMERIC",
}


class Parser:
    """Parses one or more SQL statements from a token stream."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._index = 0
        #: Lower-cased names of the tables the statement being parsed names
        #: (see :meth:`_expect_table`); :meth:`parse_statements` files one
        #: sorted tuple per statement under :attr:`statement_tables`.
        self._tables: Set[str] = set()
        self.statement_tables: List[Tuple[str, ...]] = []
        #: Expression-depth bookkeeping (see :meth:`_parse_binary`).
        self._depth = 0
        self._height = 0

    # ------------------------------------------------------------------ utils

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self._tokens[min(self._index + offset, len(self._tokens) - 1)]
        return self._tokens[self._index]

    # The index never passes the trailing EOF token, so it needs no clamp.

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _expect_keyword(self, *keywords: str) -> Token:
        token = self._peek()
        if not token.matches_keyword(*keywords):
            raise ParseError(
                f"expected {' or '.join(keywords)} but found {token.value!r} "
                f"at position {token.position}",
                token,
            )
        return self._advance()

    def _expect_punctuation(self, char: str) -> Token:
        token = self._peek()
        if not token.is_punctuation(char):
            raise ParseError(
                f"expected {char!r} but found {token.value!r} at position {token.position}",
                token,
            )
        return self._advance()

    def _accept_keyword(self, *keywords: str) -> Optional[Token]:
        token = self._tokens[self._index]
        if token.type is TokenType.KEYWORD and token.value in keywords:
            self._index += 1
            return token
        return None

    def _accept_punctuation(self, char: str) -> bool:
        token = self._tokens[self._index]
        if token.type is TokenType.PUNCTUATION and token.value == char:
            self._index += 1
            return True
        return False

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        # Permit non-reserved usage of some keywords as identifiers.
        if token.type is TokenType.KEYWORD and token.value in _TYPE_KEYWORDS | _AGGREGATE_KEYWORDS:
            self._advance()
            return token.value.lower()
        raise ParseError(
            f"expected an identifier but found {token.value!r} at position {token.position}",
            token,
        )

    def _expect_table(self) -> str:
        """Consume the name of a table the statement reads or writes.

        Every table a statement names enters its AST through here, so the
        set this records cannot miss one, wherever the reference sits.
        """
        name = self._expect_identifier()
        self._tables.add(name.lower())
        return name

    # ------------------------------------------------------------- entry points

    def parse_statements(self) -> List[ast.Statement]:
        """Parse every semicolon-separated statement in the input."""
        statements: List[ast.Statement] = []
        while self._peek().type is not TokenType.EOF:
            if self._accept_punctuation(";"):
                continue
            self._tables = set()
            statements.append(self.parse_statement())
            self.statement_tables.append(tuple(sorted(self._tables)))
            self._accept_punctuation(";")
        return statements

    def parse_statement(self) -> ast.Statement:
        """Parse a single statement."""
        token = self._peek()
        if token.matches_keyword("EXPLAIN"):
            return self._parse_explain()
        if token.matches_keyword("SELECT"):
            return self.parse_select()
        if token.is_punctuation("("):
            return self.parse_select()
        if token.matches_keyword("CREATE"):
            return self._parse_create()
        if token.matches_keyword("DROP"):
            return self._parse_drop()
        if token.matches_keyword("INSERT"):
            return self._parse_insert()
        if token.matches_keyword("UPDATE"):
            return self._parse_update()
        if token.matches_keyword("DELETE"):
            return self._parse_delete()
        raise ParseError(
            f"unsupported statement starting with {token.value!r} at position {token.position}",
            token,
        )

    # ------------------------------------------------------------------ EXPLAIN

    def _parse_explain(self) -> ast.Explain:
        self._expect_keyword("EXPLAIN")
        analyze = bool(self._accept_keyword("ANALYZE"))
        format_name: Optional[str] = None
        options: List[str] = []
        # PostgreSQL-style parenthesised options: EXPLAIN (FORMAT JSON, SUMMARY TRUE)
        if self._peek().is_punctuation("(") and self._peek(1).type in (
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
        ) and not self._peek(1).matches_keyword("SELECT"):
            self._advance()
            while not self._accept_punctuation(")"):
                token = self._advance()
                if token.type is TokenType.EOF:
                    raise ParseError("unterminated EXPLAIN options", token)
                if token.matches_keyword("FORMAT"):
                    format_token = self._advance()
                    format_name = format_token.value.lower()
                    options.append(f"FORMAT {format_name.upper()}")
                elif token.matches_keyword("ANALYZE"):
                    analyze = True
                    options.append("ANALYZE")
                elif not token.is_punctuation(","):
                    options.append(token.value)
        elif self._accept_keyword("FORMAT"):
            format_name = self._advance().value.lower()
        statement = self.parse_statement()
        return ast.Explain(statement, analyze=analyze, format=format_name, options=options)

    # ------------------------------------------------------------------- SELECT

    def parse_select(self) -> ast.SelectStatement:
        """Parse a SELECT statement including set operations and ORDER/LIMIT."""
        self._depth += _SELECT_DEPTH
        if self._depth > MAX_EXPRESSION_DEPTH:
            raise self._too_deep()
        body = self._parse_set_operation_body()
        statement = ast.SelectStatement(body=body)
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            statement.order_by = self._parse_order_items()
        if self._accept_keyword("LIMIT"):
            statement.limit = self.parse_expression()
        if self._accept_keyword("OFFSET"):
            statement.offset = self.parse_expression()
        self._depth -= _SELECT_DEPTH
        return statement

    def _parse_set_operation_body(self) -> Union[ast.SelectCore, ast.SetOperation]:
        left = self._parse_select_core_or_parenthesised()
        while self._peek().matches_keyword("UNION", "INTERSECT", "EXCEPT"):
            operator_token = self._advance()
            operator = operator_token.value
            if operator == "UNION" and self._accept_keyword("ALL"):
                operator = "UNION ALL"
            else:
                self._accept_keyword("DISTINCT")
            right = self._parse_select_core_or_parenthesised()
            left = ast.SetOperation(operator, left, right)
        return left

    def _parse_select_core_or_parenthesised(
        self,
    ) -> Union[ast.SelectCore, ast.SetOperation]:
        if self._accept_punctuation("("):
            self._depth += 1
            if self._depth > MAX_EXPRESSION_DEPTH:
                raise self._too_deep()
            body = self._parse_set_operation_body()
            self._expect_punctuation(")")
            self._depth -= 1
            return body
        return self._parse_select_core()

    def _parse_select_core(self) -> ast.SelectCore:
        self._expect_keyword("SELECT")
        core = ast.SelectCore()
        if self._accept_keyword("DISTINCT"):
            core.distinct = True
        else:
            self._accept_keyword("ALL")
        core.items = self._parse_select_items()
        if self._accept_keyword("FROM"):
            core.from_clause = self._parse_from_clause()
        if self._accept_keyword("WHERE"):
            core.where = self.parse_expression()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            core.group_by = self._parse_expression_list()
        if self._accept_keyword("HAVING"):
            core.having = self.parse_expression()
        return core

    def _parse_select_items(self) -> List[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_punctuation(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.is_operator("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # Qualified star: t0.*
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).is_punctuation(".")
            and self._peek(2).is_operator("*")
        ):
            self._advance()
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(table=token.value))
        expression = self.parse_expression()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression, alias)

    def _parse_order_items(self) -> List[ast.OrderItem]:
        items: List[ast.OrderItem] = []
        while True:
            expression = self.parse_expression()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            items.append(ast.OrderItem(expression, descending))
            if not self._accept_punctuation(","):
                break
        return items

    def _parse_expression_list(self) -> List[ast.Expression]:
        expressions = [self.parse_expression()]
        while self._accept_punctuation(","):
            expressions.append(self.parse_expression())
        return expressions

    # ----------------------------------------------------------------- FROM

    def _parse_from_clause(self) -> ast.TableExpression:
        left = self._parse_table_primary()
        while True:
            token = self._peek()
            if token.is_punctuation(","):
                self._advance()
                right = self._parse_table_primary()
                left = ast.Join(left, right, join_type="CROSS")
                continue
            join_type = self._parse_join_type()
            if join_type is None:
                break
            right = self._parse_table_primary()
            condition: Optional[ast.Expression] = None
            using_columns: List[str] = []
            if join_type != "CROSS":
                if self._accept_keyword("ON"):
                    condition = self.parse_expression()
                elif self._accept_keyword("USING"):
                    self._expect_punctuation("(")
                    using_columns.append(self._expect_identifier())
                    while self._accept_punctuation(","):
                        using_columns.append(self._expect_identifier())
                    self._expect_punctuation(")")
            left = ast.Join(left, right, join_type, condition, using_columns)
        return left

    def _parse_join_type(self) -> Optional[str]:
        token = self._peek()
        if token.matches_keyword("JOIN"):
            self._advance()
            return "INNER"
        if token.matches_keyword("INNER"):
            self._advance()
            self._expect_keyword("JOIN")
            return "INNER"
        if token.matches_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            return "CROSS"
        if token.matches_keyword("NATURAL"):
            self._advance()
            self._accept_keyword("INNER")
            self._expect_keyword("JOIN")
            return "INNER"
        if token.matches_keyword("LEFT", "RIGHT", "FULL"):
            join_type = token.value
            self._advance()
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return join_type
        return None

    def _parse_table_primary(self) -> ast.TableExpression:
        if self._accept_punctuation("("):
            if self._peek().matches_keyword("SELECT") or self._peek().is_punctuation("("):
                query = self.parse_select()
                self._expect_punctuation(")")
                alias = self._parse_optional_alias() or "subquery"
                return ast.SubqueryRef(query, alias)
            self._depth += 1
            if self._depth > MAX_EXPRESSION_DEPTH:
                raise self._too_deep()
            inner = self._parse_from_clause()
            self._expect_punctuation(")")
            self._depth -= 1
            return inner
        name = self._expect_table()
        alias = self._parse_optional_alias()
        return ast.TableRef(name, alias)

    def _parse_optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_identifier()
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        return None

    # ----------------------------------------------------------------- DDL / DML

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = bool(self._accept_keyword("UNIQUE"))
        if self._accept_keyword("TABLE"):
            if unique:
                raise ParseError("CREATE UNIQUE TABLE is not valid SQL")
            return self._parse_create_table()
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique)
        token = self._peek()
        raise ParseError(
            f"unsupported CREATE statement near {token.value!r}", token
        )

    def _parse_create_table(self) -> ast.CreateTable:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._expect_identifier()
        statement = ast.CreateTable(name, if_not_exists=if_not_exists)
        self._expect_punctuation("(")
        while True:
            if self._peek().matches_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                self._expect_punctuation("(")
                key_columns = [self._expect_identifier()]
                while self._accept_punctuation(","):
                    key_columns.append(self._expect_identifier())
                self._expect_punctuation(")")
                for column in statement.columns:
                    if column.name in key_columns:
                        column.primary_key = True
            else:
                statement.columns.append(self._parse_column_definition())
            if not self._accept_punctuation(","):
                break
        self._expect_punctuation(")")
        return statement

    def _parse_column_definition(self) -> ast.ColumnDef:
        name = self._expect_identifier()
        type_name = self._parse_type_name()
        column = ast.ColumnDef(name, type_name)
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                column.primary_key = True
            elif self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                column.not_null = True
            elif self._accept_keyword("NULL"):
                continue
            elif self._accept_keyword("UNIQUE"):
                column.unique = True
            elif self._accept_keyword("DEFAULT"):
                column.default = self.parse_expression()
            elif self._accept_keyword("CHECK"):
                self._expect_punctuation("(")
                self.parse_expression()
                self._expect_punctuation(")")
            elif self._accept_keyword("REFERENCES"):
                self._expect_identifier()
                if self._accept_punctuation("("):
                    self._expect_identifier()
                    self._expect_punctuation(")")
            else:
                break
        return column

    def _parse_type_name(self) -> str:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in _TYPE_KEYWORDS:
            self._advance()
            type_name = token.value
            if type_name == "DOUBLE" and self._accept_keyword("PRECISION"):
                type_name = "DOUBLE PRECISION"
            if self._accept_punctuation("("):
                while not self._accept_punctuation(")"):
                    self._advance()
            return type_name
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            if self._accept_punctuation("("):
                while not self._accept_punctuation(")"):
                    self._advance()
            return token.value.upper()
        return "INT"

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        name = self._expect_identifier()
        self._expect_keyword("ON")
        table = self._expect_table()
        self._expect_punctuation("(")
        columns = [self._expect_identifier()]
        while self._accept_punctuation(","):
            columns.append(self._expect_identifier())
        self._expect_punctuation(")")
        return ast.CreateIndex(name, table, columns, unique)

    def _parse_drop(self) -> ast.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTable(self._expect_identifier(), if_exists)

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_table()
        statement = ast.Insert(table)
        if self._peek().is_punctuation("(") and not self._peek(1).matches_keyword("SELECT"):
            self._expect_punctuation("(")
            statement.columns.append(self._expect_identifier())
            while self._accept_punctuation(","):
                statement.columns.append(self._expect_identifier())
            self._expect_punctuation(")")
        if self._accept_keyword("VALUES"):
            while True:
                self._expect_punctuation("(")
                row = [self.parse_expression()]
                while self._accept_punctuation(","):
                    row.append(self.parse_expression())
                self._expect_punctuation(")")
                statement.rows.append(row)
                if not self._accept_punctuation(","):
                    break
        else:
            statement.select = self.parse_select()
        return statement

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_table()
        self._expect_keyword("SET")
        statement = ast.Update(table)
        while True:
            column = self._expect_identifier()
            token = self._peek()
            if not token.is_operator("="):
                raise ParseError(f"expected '=' in UPDATE assignment, got {token.value!r}", token)
            self._advance()
            statement.assignments.append((column, self.parse_expression()))
            if not self._accept_punctuation(","):
                break
        if self._accept_keyword("WHERE"):
            statement.where = self.parse_expression()
        return statement

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_table()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.Delete(table, where)

    # ------------------------------------------------------------- expressions

    def parse_expression(self) -> ast.Expression:
        """Parse a scalar expression (the OR level)."""
        return self._parse_binary(1)

    def _parse_binary(self, min_power: int) -> ast.Expression:
        """Parse an expression whose binary operators bind at least *min_power*.

        Precedence climbing over :data:`_BINARY_POWER`: one call per level
        of nesting, not one per precedence level.  Only an operator binding
        no tighter than the last one applied (``NOT`` after a prefix ``NOT``)
        may follow it, so the ``+ 1`` of ``a IS NULL + 1`` is left
        unconsumed, as a method-per-level descent leaves it.  :attr:`_height`
        is the running maximum height of the expressions finished since the
        enclosing call reset it, :attr:`_depth` the open nesting; either
        passing :data:`MAX_EXPRESSION_DEPTH` raises :class:`ParseError`.
        """
        outer_height = self._height
        self._height = 0
        self._depth += 1
        if self._depth > MAX_EXPRESSION_DEPTH:
            raise self._too_deep()
        tokens = self._tokens
        token = tokens[self._index]
        if min_power <= _NOT_POWER and token.type is _KEYWORD and token.value == "NOT":
            self._index += 1
            left: ast.Expression = ast.UnaryOp("NOT", self._parse_binary(_NOT_POWER))
            ceiling = _NOT_POWER
        else:
            ceiling = _MAX_POWER
            signs = []
            while token.type is _OPERATOR and (token.value == "-" or token.value == "+"):
                signs.append(token.value)
                self._index += 1
                token = tokens[self._index]
            left = self._parse_primary()
            for sign in reversed(signs):
                left = ast.UnaryOp(sign, left)
            self._height += len(signs)
        height = self._height + 1
        while True:
            token = tokens[self._index]
            if token.type is not _OPERATOR and token.type is not _KEYWORD:
                break
            operator = token.value
            power = _BINARY_POWER.get(operator, 0)
            if power < min_power or power > ceiling:
                break
            ceiling = power
            negated = operator == "NOT"
            if negated:
                if not tokens[self._index + 1].matches_keyword("IN", "BETWEEN", "LIKE"):
                    break
                self._index += 1
                operator = tokens[self._index].value
            self._index += 1
            self._height = 0
            if operator == "IS":
                is_negated = bool(self._accept_keyword("NOT"))
                self._expect_keyword("NULL")
                left = ast.IsNull(left, negated=is_negated)
            elif operator == "IN":
                self._expect_punctuation("(")
                if self._peek().matches_keyword("SELECT"):
                    subquery = self.parse_select()
                    self._expect_punctuation(")")
                    left = ast.InSubquery(left, subquery, negated)
                else:
                    items = self._parse_expression_list()
                    self._expect_punctuation(")")
                    left = ast.InList(left, items, negated)
            elif operator == "BETWEEN":
                low = self._parse_binary(_ADDITIVE_POWER)
                self._expect_keyword("AND")
                high = self._parse_binary(_ADDITIVE_POWER)
                left = ast.Between(left, low, high, negated)
            elif operator == "LIKE":
                left = ast.Like(left, self._parse_binary(_ADDITIVE_POWER), negated)
            else:
                right = self._parse_binary(power + 1)
                left = ast.BinaryOp("<>" if operator == "!=" else operator, left, right)
            height = max(height, self._height) + 1
        if height > MAX_EXPRESSION_DEPTH:
            raise self._too_deep()
        self._height = max(outer_height, height)
        self._depth -= 1
        return left

    def _too_deep(self) -> ParseError:
        token = self._tokens[self._index]
        return ParseError(
            f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels "
            f"near position {token.position}",
            token,
        )

    def _parse_primary(self) -> ast.Expression:
        tokens = self._tokens
        token = tokens[self._index]
        kind = token.type

        if kind is TokenType.IDENTIFIER:
            following = tokens[self._index + 1]
            if following.is_punctuation("("):
                return self._parse_function_call(token.value)
            self._index += 1
            if following.is_punctuation(".") and tokens[self._index + 1].type in (
                TokenType.IDENTIFIER,
                TokenType.KEYWORD,
            ):
                self._index += 2
                return ast.ColumnRef(column=tokens[self._index - 1].value, table=token.value)
            return ast.ColumnRef(column=token.value)

        if kind is TokenType.NUMBER:
            self._index += 1
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))

        if kind is TokenType.KEYWORD:
            value = token.value
            if value in _KEYWORD_LITERALS:
                self._index += 1
                return ast.Literal(_KEYWORD_LITERALS[value])
            if value == "CASE":
                return self._parse_case()
            if value == "CAST":
                self._index += 1
                self._expect_punctuation("(")
                expression = self.parse_expression()
                self._expect_keyword("AS")
                target_type = self._parse_type_name()
                self._expect_punctuation(")")
                return ast.Cast(expression, target_type)
            if value == "EXISTS":
                self._index += 1
                self._expect_punctuation("(")
                query = self.parse_select()
                self._expect_punctuation(")")
                return ast.Exists(query)
            # Aggregates, and functions spelled as keywords (EXTRACT, SUBSTRING).
            if value in _AGGREGATE_KEYWORDS or tokens[self._index + 1].is_punctuation("("):
                return self._parse_function_call(value)

        elif kind is TokenType.STRING:
            self._index += 1
            return ast.Literal(token.value)

        elif kind is TokenType.PARAMETER:
            self._index += 1
            return ast.Parameter(token.value)

        elif token.is_punctuation("("):
            self._index += 1
            if tokens[self._index].matches_keyword("SELECT"):
                query = self.parse_select()
                self._expect_punctuation(")")
                return ast.ScalarSubquery(query)
            expression = self.parse_expression()
            self._expect_punctuation(")")
            return expression

        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}", token
        )

    def _parse_case(self) -> ast.Case:
        self._expect_keyword("CASE")
        case = ast.Case()
        if not self._peek().matches_keyword("WHEN"):
            case.operand = self.parse_expression()
        while self._accept_keyword("WHEN"):
            condition = self.parse_expression()
            self._expect_keyword("THEN")
            result = self.parse_expression()
            case.whens.append(ast.CaseWhen(condition, result))
        if self._accept_keyword("ELSE"):
            case.else_result = self.parse_expression()
        self._expect_keyword("END")
        return case

    def _parse_function_call(self, name: str) -> ast.Expression:
        self._advance()  # function name
        self._expect_punctuation("(")
        call = ast.FunctionCall(name=name.upper() if name.isupper() else name)
        if self._accept_punctuation(")"):
            return call
        if self._peek().is_operator("*"):
            self._advance()
            call.star = True
            self._expect_punctuation(")")
            return call
        if self._accept_keyword("DISTINCT"):
            call.distinct = True
        call.arguments.append(self.parse_expression())
        while self._accept_punctuation(","):
            call.arguments.append(self.parse_expression())
        self._expect_punctuation(")")
        return call


def parse_sql(sql: str) -> List[ast.Statement]:
    """Parse every statement in *sql* and return the list of AST roots."""
    return Parser(sql).parse_statements()


def parse_script(sql: str) -> Tuple[List[ast.Statement], List[Tuple[str, ...]]]:
    """Parse *sql* into its statements and, per statement, the tables it names.

    A statement's tables are the sorted lower-cased names of every table it
    reads or writes: each FROM item anywhere below it (subqueries in any
    expression position, derived tables, set-operation arms, the SELECT of an
    ``INSERT … SELECT``, an EXPLAIN's inner statement) and a DML or
    ``CREATE INDEX`` target — what a cached plan of the statement may depend
    on beyond the catalog itself.
    """
    parser = Parser(sql)
    return parser.parse_statements(), parser.statement_tables


def parse_one(sql: str) -> ast.Statement:
    """Parse exactly one statement from *sql*."""
    statements = parse_sql(sql)
    if len(statements) != 1:
        raise ParseError(f"expected exactly one statement, found {len(statements)}")
    return statements[0]
