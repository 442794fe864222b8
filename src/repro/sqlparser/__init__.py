"""SQL front-end substrate: lexer, AST, parser, and printer.

The simulated relational DBMSs (:mod:`repro.dialects`) parse SQL through this
package before planning and executing statements.  The supported subset covers
the paper's workloads: DDL, DML, and SELECT with joins, grouping, set
operations, ordering, limits, and (scalar / IN / EXISTS) subqueries.
"""

from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.parser import Parser, parse_one, parse_script, parse_sql
from repro.sqlparser.printer import print_expression, print_select, print_statement

__all__ = [
    "ast",
    "tokenize",
    "Parser",
    "parse_script",
    "parse_sql",
    "parse_one",
    "print_expression",
    "print_select",
    "print_statement",
]
