"""SQL SELECT subset.

The paper's worked examples (Section 6) pose queries in SQL against the
ship database; this package parses and executes that dialect::

    from repro.sql import execute_sql

    rows = execute_sql(db, '''
        SELECT SUBMARINE.ID, SUBMARINE.NAME
        FROM SUBMARINE, CLASS
        WHERE SUBMARINE.CLASS = CLASS.CLASS
        AND CLASS.DISPLACEMENT > 8000''')

Supported: ``SELECT [DISTINCT] items FROM tables [WHERE conj/disj of
comparisons] [ORDER BY cols]``, table aliases, ``*``, ``AS`` aliases.
"""

from repro.sql.parser import parse_select, parse_statement
from repro.sql.executor import execute_select, execute_sql, execute_statement
from repro.sql.reference import execute_select_reference
from repro.sql.fingerprint import normalize_sql
from repro.sql import ast

__all__ = [
    "parse_select",
    "parse_statement",
    "execute_sql",
    "execute_select",
    "execute_select_reference",
    "execute_statement",
    "normalize_sql",
    "ast",
]
