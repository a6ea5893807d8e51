"""The rule-induction algorithm of Section 5.2.1.

Four steps, for the rule scheme X --> Y over a source of (X, Y) pairs:

1. retrieve the distinct (X, Y) pairs (``retrieve into S unique``);
2. remove pairs whose X maps to multiple Y values (the self-join into T
   followed by the delete);
3. construct one rule ``if x1 <= X <= x2 then Y = y`` per maximal value
   range (see :mod:`repro.induction.runs`);
4. prune rules with support below ``N_c``.

Steps 1-2 execute on one of three equivalent paths:

* :func:`extract_pairs_columnar` -- a distinct-pair count sweep over the
  relation's column store, used for every scheme within one relation;
* :func:`extract_pairs_native` -- plain Python over (x, y) pairs, used
  for inter-object schemes, whose pairs come from a relationship join;
* :func:`extract_pairs_quel` -- the literal QUEL statements the paper
  prints, run through :class:`repro.quel.QuelSession`.

All three produce a :class:`PairExtraction`; tests pin their
equivalence.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, NamedTuple

from repro.errors import InductionError
from repro.induction.config import InductionConfig
from repro.induction.runs import build_runs
from repro.quel.interpreter import QuelSession
from repro.relational import columnar
from repro.relational.columnar import (
    ColumnStore, DictionaryColumn, PlainColumn,
)
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule

#: Temporary relation names used by the QUEL execution path (INGRES-style
#: working relations; dropped after extraction).
_QUEL_S = "_ILS_S"
_QUEL_T = "_ILS_T"

#: Packed (X, Y) surrogate codes stay below this bound, so neither the
#: int64 offsets nor the packing can overflow.
_PACK_LIMIT = 2 ** 62


class PairExtraction(NamedTuple):
    """Steps 1-2 output, ready for run construction."""

    occurring_x: tuple           #: sorted distinct non-NULL X values
    mapping: dict                #: consistent X -> Y
    removed: frozenset           #: X values removed as inconsistent
    counts: dict                 #: X -> source row count (consistent X only)
    source_size: int             #: rows considered (non-NULL X)


def extract_pairs_native(pairs: Iterable[tuple[Any, Any]]) -> PairExtraction:
    """Run steps 1-2 natively over raw (x, y) pairs.

    Rows with NULL X are unusable for range construction and are
    skipped; rows with NULL Y keep their X in the occurring set (they
    break runs) but never produce a mapping.
    """
    ys_by_x: dict[Any, set] = {}
    counts: dict[Any, int] = {}
    source_size = 0
    null_y_xs: set = set()
    for x, y in pairs:
        if x is None:
            continue
        source_size += 1
        if y is None:
            null_y_xs.add(x)
            continue
        ys_by_x.setdefault(x, set()).add(y)
        counts[x] = counts.get(x, 0) + 1

    removed = frozenset(x for x, ys in ys_by_x.items() if len(ys) > 1)
    mapping = {x: next(iter(ys)) for x, ys in ys_by_x.items()
               if len(ys) == 1}
    occurring = sorted(set(ys_by_x) | null_y_xs)
    consistent_counts = {x: n for x, n in counts.items() if x in mapping}
    return PairExtraction(tuple(occurring), mapping, removed,
                          consistent_counts, source_size)


def extract_pairs_columnar(store: ColumnStore, x_column: str,
                           y_column: str) -> PairExtraction:
    """Steps 1-2 as an aggregation sweep over a column store.

    Instead of one dict probe per row, the (X, Y) pair distribution is
    counted in bulk -- ``np.unique`` over packed dictionary/integer
    codes when numpy is in play, a C-speed ``Counter(zip(...))``
    otherwise -- and the :class:`PairExtraction` is reconstructed from
    the *distinct-pair* counts, which for the low-cardinality attributes
    rule induction targets is orders of magnitude smaller than the row
    count.  Exactly equivalent to :func:`extract_pairs_native` over the
    same rows, field for field on both kernel backends
    (``tests/induction/test_pairwise.py::TestExtractColumnar`` pins
    this).
    """
    x_position = store.schema.position(x_column)
    y_position = store.schema.position(y_column)
    pair_counts = _pair_counts(store.columns[x_position],
                               store.columns[y_position])
    ys_by_x: dict[Any, set] = {}
    counts: dict[Any, int] = {}
    null_y_xs: set = set()
    source_size = 0
    for (x, y), occurrences in pair_counts:
        if x is None:
            continue
        source_size += occurrences
        if y is None:
            null_y_xs.add(x)
            continue
        ys_by_x.setdefault(x, set()).add(y)
        counts[x] = counts.get(x, 0) + occurrences

    removed = frozenset(x for x, ys in ys_by_x.items() if len(ys) > 1)
    mapping = {x: next(iter(ys)) for x, ys in ys_by_x.items()
               if len(ys) == 1}
    occurring = sorted(set(ys_by_x) | null_y_xs)
    consistent_counts = {x: n for x, n in counts.items() if x in mapping}
    return PairExtraction(tuple(occurring), mapping, removed,
                          consistent_counts, source_size)


def _pair_counts(x_col, y_col) -> list[tuple[tuple[Any, Any], int]]:
    """Distinct (x, y) value pairs with their occurrence counts."""
    np = columnar.numpy_module()
    if np is not None:
        counted = _np_pair_counts(np, x_col, y_col)
        if counted is not None:
            return counted
    xs = x_col.decode() if isinstance(x_col, DictionaryColumn) \
        else x_col.values
    ys = y_col.decode() if isinstance(y_col, DictionaryColumn) \
        else y_col.values
    return list(Counter(zip(xs, ys)).items())


def _np_pair_counts(np, x_col, y_col):
    """Pair counts via one ``np.unique`` over packed codes, or ``None``
    when either column has no small-integer surrogate."""
    x_view = _surrogate_codes(np, x_col)
    y_view = _surrogate_codes(np, y_col)
    if x_view is None or y_view is None:
        return None
    x_codes, x_decode = x_view
    y_codes, y_decode = y_view
    if not len(x_codes):
        return []
    span = int(y_codes.max()) + 1
    if int(x_codes.max()) >= _PACK_LIMIT // max(span, 1):
        return None  # packing would overflow; let Counter handle it
    packed, occurrences = np.unique(
        x_codes.astype(np.int64) * span + y_codes, return_counts=True)
    return [((x_decode(int(key) // span), y_decode(int(key) % span)),
             int(count)) for key, count in zip(packed, occurrences)]


def _surrogate_codes(np, column):
    """``(codes, decode)`` mapping the column to non-negative int codes
    (NULL included), or ``None`` when no cheap encoding exists."""
    if isinstance(column, DictionaryColumn):
        values = column.values

        def decode_dict(code: int):
            return None if code == 0 else values[code - 1]

        return column.np_codes().astype(np.int64) + 1, decode_dict
    if isinstance(column, PlainColumn) and column.datatype.name == "integer":
        array = column.array()
        if array is None:  # NULLs or non-int64 values: no surrogate
            return None
        low = int(array.min()) if len(array) else 0
        if len(array) and int(array.max()) - low >= _PACK_LIMIT:
            # ``array - low`` would wrap around in int64; the span is
            # measured in Python ints, which cannot.
            return None

        def decode_int(code: int, low: int = low) -> int:
            return code + low

        return array - low, decode_int
    return None


def extract_pairs_quel(database: Database, relation_name: str,
                       x_column: str, y_column: str) -> PairExtraction:
    """Run steps 1-2 through the QUEL interpreter, using the statements
    printed in Section 5.2.1 verbatim (modulo attribute names)."""
    session = QuelSession(database)
    session.execute(f"range of r is {relation_name}")
    session.execute(
        f"retrieve into {_QUEL_S} unique (r.{y_column}, r.{x_column}) "
        f"sort by r.{y_column}")
    session.execute(f"range of s is {_QUEL_S}")
    session.execute(
        f"retrieve into {_QUEL_T} unique (s.{y_column}, s.{x_column}) "
        f"where (r.{x_column} = s.{x_column} "
        f"and r.{y_column} != s.{y_column})")
    session.execute(f"range of t is {_QUEL_T}")
    session.execute(
        f"delete s where (s.{x_column} = t.{x_column} "
        f"and s.{y_column} = t.{y_column})")

    survivors = database.relation(_QUEL_S)
    removed_rel = database.relation(_QUEL_T)
    # NULL X cannot anchor a range; NULL Y classifies nothing.  (INGRES
    # would keep such pairs in S; the native path drops them, so drop
    # them here too.)
    mapping = {
        survivors.value(row, x_column): survivors.value(row, y_column)
        for row in survivors
        if survivors.value(row, x_column) is not None
        and survivors.value(row, y_column) is not None}
    removed = frozenset(removed_rel.value(row, x_column)
                        for row in removed_rel)

    source = database.relation(relation_name)
    counts: dict[Any, int] = {}
    occurring: set = set()
    source_size = 0
    x_position = source.schema.position(x_column)
    y_position = source.schema.position(y_column)
    for row in source:
        x = row[x_position]
        if x is None:
            continue
        source_size += 1
        occurring.add(x)
        if row[y_position] is not None and x in mapping:
            counts[x] = counts.get(x, 0) + 1

    database.drop(_QUEL_S)
    database.drop(_QUEL_T)
    return PairExtraction(tuple(sorted(occurring)), mapping, removed,
                          counts, source_size)


def induce_from_pairs(extraction: PairExtraction,
                      x_ref: AttributeRef, y_ref: AttributeRef,
                      config: InductionConfig,
                      relation_size: int | None = None) -> list[Rule]:
    """Steps 3-4: build value-range rules and prune by support."""
    runs = build_runs(extraction.occurring_x, extraction.mapping,
                      extraction.removed, extraction.counts,
                      break_on_removed=config.break_on_removed)
    threshold = config.threshold_for(
        relation_size if relation_size is not None
        else extraction.source_size)
    rules = []
    for run in runs:
        if run.support(config.support_metric) < threshold:
            continue
        rules.append(Rule(
            [Clause(x_ref, Interval.closed(run.low, run.high))],
            Clause(y_ref, Interval.point(run.y)),
            support=run.instances))
    return rules


def induce_scheme(relation: Relation, x_column: str, y_column: str,
                  config: InductionConfig | None = None,
                  x_ref: AttributeRef | None = None,
                  y_ref: AttributeRef | None = None,
                  database: Database | None = None) -> list[Rule]:
    """Induce the full rule set for one scheme X --> Y over *relation*.

    With ``config.use_quel`` the extraction runs through QUEL, which
    requires *database* (the relation must be registered in it).
    """
    config = config or InductionConfig()
    x_ref = x_ref or AttributeRef(relation.name, x_column)
    y_ref = y_ref or AttributeRef(relation.name, y_column)
    if config.use_quel:
        if database is None:
            raise InductionError(
                "the QUEL induction path needs the owning database")
        extraction = extract_pairs_quel(database, relation.name,
                                        x_column, y_column)
    else:
        extraction = extract_pairs_columnar(relation.column_store(),
                                            x_column, y_column)
    return induce_from_pairs(extraction, x_ref, y_ref, config,
                             relation_size=len(relation))
