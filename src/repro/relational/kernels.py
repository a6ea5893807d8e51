"""Vectorized predicate kernels over :class:`ColumnStore` columns.

Where :mod:`repro.relational.compiled` collapses a predicate tree into a
per-row closure, this module collapses it into a *mask*: one boolean per
row, computed column-at-a-time (a numpy boolean array on the fast path,
a plain list from a single comprehension otherwise).  Masks AND/OR/NOT
together positionally and the final mask becomes a selection -- the
ascending row positions that survive -- which callers use to gather
surviving rows from the store's aligned snapshot.  A kernel runs the
same over a :class:`~repro.relational.columnar.ColumnSelection` (say,
the rows of an index range); its masks then align with the selection.

Exact-semantics gating
----------------------

The row pipeline's semantics are the contract: comparisons with a NULL
operand are false, ``and``/``or`` short-circuit per row, and a type
error raises :class:`~repro.errors.ExpressionError` *for the first row
that reaches it*.  A mask evaluates every row of every conjunct, so the
only predicates compiled here are ones that provably cannot raise:
comparisons whose operand types are :func:`~repro.relational.datatypes.
comparable` (then short-circuit order is unobservable), ``IS NULL``
over a column, and boolean combinators over such parts.  Anything else
-- arithmetic (division can raise), incomparable operand types, unknown
node shapes -- raises :class:`UnsupportedKernel` and the caller falls
back to the row path, which reproduces interpreter behavior exactly.
Column-resolution failures raise the resolver's
:class:`ExpressionError` with the interpreter's messages, matching when
and what the compiled row path raises.

Dictionary columns evaluate comparisons over *codes*: an ordering
predicate becomes one comparison per distinct dictionary value (a truth
table) plus a gather, never one per row; the NULL code indexes a
dedicated always-false slot.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterable, Sequence

from repro.errors import ExpressionError, TypeMismatchError
from repro.relational import columnar
from repro.relational.columnar import (
    ColumnStore, DictionaryColumn, PlainColumn,
)
from repro.relational.datatypes import comparable, infer_type
from repro.relational.expressions import (
    _COMPARISONS, And, Comparison, ColumnRef, Expression, IsNull, Literal,
    Not, Or,
)


class UnsupportedKernel(Exception):
    """Raised when a predicate cannot be compiled into a total
    (never-raising) mask; callers fall back to the row path."""


def predicate_mask(store: ColumnStore, predicates: Sequence[Expression],
                   qualifiers: Iterable[str] = ()):
    """The conjunction of *predicates* as one mask over *store*'s rows
    (``None`` when there are no predicates, i.e. everything survives).

    Raises :class:`UnsupportedKernel` for trees outside the compilable
    subset and :class:`ExpressionError` for resolution failures, with
    the row-path resolver's messages.
    """
    accepted = {q.lower() for q in qualifiers}
    mask = None
    for predicate in predicates:
        mask = combine_and(mask, _mask(predicate, store, accepted))
    return mask


def combine_and(left, right):
    """AND of two masks; ``None`` means all-true."""
    if left is None:
        return right
    if right is None:
        return left
    np = columnar.numpy_module()
    if np is not None:
        return left & right
    return [a and b for a, b in zip(left, right)]


def to_selection(mask, within: list[int] | None = None):
    """*mask* as a selection: the list of ascending row positions it
    keeps (of *within*'s positions when given, the mask then aligned
    with them).  A ``None`` mask keeps all: *within* passes through."""
    if mask is None:
        return within
    np = columnar.numpy_module()
    if np is not None and isinstance(mask, np.ndarray):
        if within is None:
            return np.flatnonzero(mask).tolist()
        mask = mask.tolist()
    return list(compress(range(len(mask)) if within is None else within,
                         mask))


class Selection:
    """The rows of a store that an access path chose: every row, the
    rows a mask over the whole store keeps (a scan and its filter), or
    ascending positions (an index range).  Positions are listed only
    when a caller gathers.  :meth:`restrict` runs a further kernel over
    the whole store and ANDs masks in the first two cases -- vector
    operations over cached columns -- and over only the selected rows
    for positions, so an index range never pays a pass over the table.
    """

    __slots__ = ("store", "mask", "_positions")

    def __init__(self, store: ColumnStore, mask=None,
                 positions: list[int] | None = None):
        self.store, self.mask, self._positions = store, mask, positions

    def positions(self) -> list[int] | None:
        """The ascending positions (``None`` = every row)."""
        if self._positions is None and self.mask is not None:
            self._positions = to_selection(self.mask)
        return self._positions

    def __len__(self) -> int:
        if self._positions is not None:
            return len(self._positions)
        if self.mask is None:
            return len(self.store)
        np = columnar.numpy_module()
        if np is not None and isinstance(self.mask, np.ndarray):
            return int(np.count_nonzero(self.mask))
        return sum(self.mask)

    def restrict(self, kernel, *args) -> "Selection":
        """The selected rows that ``kernel(store, *args)`` keeps."""
        if self.mask is None and self._positions is not None:
            part = kernel(self.store.take(self._positions), *args)
            return Selection(self.store,
                             positions=to_selection(part, self._positions))
        return Selection(self.store,
                         mask=combine_and(self.mask,
                                          kernel(self.store, *args)))

    def pick(self, array):
        """The entries of a numpy *array* aligned with the store's rows
        at the selected rows."""
        if self.mask is not None:
            return array[self.mask]
        return array if self._positions is None else array[self._positions]


def membership_mask(store: ColumnStore, position: int, keys):
    """Mask of rows whose value in the column at *position* appears in
    *keys* (the hash-join probe prefilter).  NULLs never match.  The
    mask may *over*-approximate only if a caller skips the final bucket
    lookup -- here it is exact for hashable keys, and callers re-probe
    the bucket dict per candidate anyway, so row-path dict semantics
    (including NaN identity) are preserved.
    """
    np = columnar.numpy_module()
    column = store.columns[position]
    if isinstance(column, DictionaryColumn):
        codes = [column.code_for(key) for key in keys]
        wanted = {code for code in codes if code is not None}
        if np is not None:
            if not wanted:
                return np.zeros(len(store), dtype=bool)
            return np.isin(column.np_codes(),
                           np.fromiter(wanted, dtype=np.int32,
                                       count=len(wanted)))
        return [code in wanted for code in column.codes]
    if np is not None:
        array = column.array() if isinstance(column, PlainColumn) else None
        if array is not None and not _nan_hazard(np, array, keys):
            try:
                key_array = np.asarray(list(keys))
            except (TypeError, ValueError, OverflowError):
                key_array = None
            if key_array is not None and key_array.dtype.kind in "if":
                return np.isin(array, key_array)
    key_set = set(keys)
    return [value in key_set for value in column.values]


def notnull_mask(store: ColumnStore, position: int):
    """Mask of rows whose value in the column at *position* is not NULL
    (``None`` when the column provably has no NULLs)."""
    column = store.columns[position]
    np = columnar.numpy_module()
    if isinstance(column, DictionaryColumn):
        if np is not None:
            return column.np_codes() >= 0
        return [code >= 0 for code in column.codes]
    if np is not None and isinstance(column, PlainColumn):
        if column.array() is not None:  # a built array proves no NULLs
            return None
    if any(value is None for value in column.values):
        mask = [value is not None for value in column.values]
        return (np.asarray(mask, dtype=bool) if np is not None else mask)
    return None


def _nan_hazard(np, array, keys) -> bool:
    """Whether NaN could make ``np.isin`` diverge from dict probing
    (Python dicts match NaN by identity; numpy never matches it)."""
    if array.dtype.kind != "f":
        return False
    if any(isinstance(key, float) and key != key for key in keys):
        return True
    return bool(np.isnan(array).any())


# -- mask compilation --------------------------------------------------------


def _mask(expression: Expression, store: ColumnStore, accepted: set):
    mask = _mask_node(expression, store, accepted)
    np = columnar.numpy_module()
    if np is not None and not isinstance(mask, np.ndarray):
        mask = np.asarray(mask, dtype=bool)
    return mask


def _mask_node(expression: Expression, store: ColumnStore, accepted: set):
    n = len(store)
    if isinstance(expression, Literal):
        return _const_mask(n, bool(expression.value))
    if isinstance(expression, Comparison):
        return _comparison_mask(expression, store, accepted)
    if isinstance(expression, IsNull):
        return _is_null_mask(expression, store, accepted)
    if isinstance(expression, And):
        mask = None
        for part in expression.parts:
            mask = combine_and(mask, _mask(part, store, accepted))
        return mask
    if isinstance(expression, Or):
        mask = None
        for part in expression.parts:
            part_mask = _mask(part, store, accepted)
            if mask is None:
                mask = part_mask
            else:
                np = columnar.numpy_module()
                mask = (mask | part_mask if np is not None
                        else [a or b for a, b in zip(mask, part_mask)])
        return mask
    if isinstance(expression, Not):
        mask = _mask(expression.operand, store, accepted)
        np = columnar.numpy_module()
        return ~mask if np is not None else [not value for value in mask]
    raise UnsupportedKernel(type(expression).__name__)


def _resolve(ref: ColumnRef, store: ColumnStore, accepted: set) -> int:
    """Column position of *ref*, with the row-path resolver's errors."""
    schema = store.schema
    if ref.qualifier is not None:
        if ref.qualifier.lower() not in accepted:
            raise ExpressionError(
                f"unknown range variable or relation {ref.qualifier!r}")
        if not schema.has_column(ref.column):
            raise ExpressionError(
                f"{ref.qualifier} has no column {ref.column!r}")
    elif not schema.has_column(ref.column):
        raise ExpressionError(f"unknown column {ref.column!r}")
    return schema.position(ref.column)


def _comparison_mask(expression: Comparison, store: ColumnStore,
                     accepted: set):
    left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        expression = expression.flipped()
        left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        position = _resolve(left, store, accepted)
        return _column_literal_mask(store, position, op, right.value)
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        position_a = _resolve(left, store, accepted)
        position_b = _resolve(right, store, accepted)
        return _column_column_mask(store, position_a, position_b, op)
    raise UnsupportedKernel(expression.render())


def _column_literal_mask(store: ColumnStore, position: int, op: str,
                         literal: Any):
    n = len(store)
    if literal is None:
        return _const_mask(n, False)  # NULL compares false to everything
    datatype = store.schema.columns[position].datatype
    try:
        literal_type = infer_type(literal)
    except TypeMismatchError:
        raise UnsupportedKernel(f"literal {literal!r}") from None
    if not comparable(datatype, literal_type):
        # The row path raises a per-row type error for the first non-NULL
        # value; a total mask cannot reproduce that, so fall back.
        raise UnsupportedKernel(
            f"{datatype.render()} vs {literal_type.render()}")
    compare = _COMPARISONS[op]
    column = store.columns[position]
    np = columnar.numpy_module()
    if isinstance(column, DictionaryColumn):
        # One comparison per *distinct* value, then gather through the
        # codes; the extra slot keeps the NULL code (-1) always false.
        table = [compare(value, literal) for value in column.values]
        if np is not None:
            np_table = np.zeros(len(table) + 1, dtype=bool)
            if table:
                np_table[:len(table)] = table
            return np_table[column.np_codes()]
        return [code >= 0 and table[code] for code in column.codes]
    if np is not None:
        array = column.array()
        if array is not None:
            return _np_compare(np, op, array, literal)
    return [value is not None and compare(value, literal)
            for value in column.values]


def _column_column_mask(store: ColumnStore, position_a: int,
                        position_b: int, op: str):
    type_a = store.schema.columns[position_a].datatype
    type_b = store.schema.columns[position_b].datatype
    if not comparable(type_a, type_b):
        raise UnsupportedKernel(f"{type_a.render()} vs {type_b.render()}")
    column_a = store.columns[position_a]
    column_b = store.columns[position_b]
    np = columnar.numpy_module()
    if (np is not None and isinstance(column_a, PlainColumn)
            and isinstance(column_b, PlainColumn)):
        array_a = column_a.array()
        array_b = column_b.array()
        if array_a is not None and array_b is not None:
            return _np_compare(np, op, array_a, array_b)
    compare = _COMPARISONS[op]
    return [a is not None and b is not None and compare(a, b)
            for a, b in zip(store.values(position_a),
                            store.values(position_b))]


def _is_null_mask(expression: IsNull, store: ColumnStore, accepted: set):
    if not isinstance(expression.operand, ColumnRef):
        raise UnsupportedKernel(expression.render())
    position = _resolve(expression.operand, store, accepted)
    column = store.columns[position]
    np = columnar.numpy_module()
    if isinstance(column, DictionaryColumn):
        if np is not None:
            codes = column.np_codes()
            return codes >= 0 if expression.negated else codes < 0
        if expression.negated:
            return [code >= 0 for code in column.codes]
        return [code < 0 for code in column.codes]
    if np is not None and isinstance(column, PlainColumn):
        if column.array() is not None:  # a built array proves no NULLs
            return _const_mask(len(store), expression.negated)
    if expression.negated:
        return [value is not None for value in column.values]
    return [value is None for value in column.values]


def _const_mask(n: int, value: bool):
    np = columnar.numpy_module()
    if np is not None:
        return np.full(n, value, dtype=bool)
    return [value] * n


def _np_compare(np, op: str, left, right):
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


__all__ = [
    "Selection",
    "UnsupportedKernel",
    "combine_and",
    "membership_mask",
    "notnull_mask",
    "predicate_mask",
    "to_selection",
]
