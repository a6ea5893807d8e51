"""Vectorized output materialization and COUNT/GROUP BY fast paths.

The fused columnar kernels made predicate evaluation cheap; profiling
(ROADMAP) then showed ~64% of a fused scan's time going to the
per-output-row compiled projection closures.  This module removes that
tail for the common shapes:

* :func:`fast_project` -- when every SELECT item (and every ORDER BY
  key) is a plain column reference over a single scan(+filter) chain,
  survivors are gathered *column-at-a-time* from the
  :class:`~repro.relational.columnar.ColumnStore` and transposed with
  one ``zip`` instead of calling one closure per item per row.
* :func:`fast_aggregate` -- COUNT(*) / COUNT(col) and GROUP BY over a
  dictionary-encoded column reduce directly over dictionary codes:
  ``numpy.bincount`` over the code array on the numpy path, an array
  tally on the pure-Python path, never a per-group member list.

Exact-semantics gating mirrors the kernels: a fast path engages only
when it provably reproduces the row path -- validation runs through
the *same* executor helpers (:func:`~repro.sql.executor.
_projection_items`, ``_validate_grouped``), predicates evaluate
through :func:`~repro.relational.kernels.predicate_mask`, and any
unsupported shape returns ``None`` so the caller falls back to the
row-path projection, which reproduces interpreter behavior exactly.
"""

from __future__ import annotations

import time

from repro import obs
from repro.plan import plans
from repro.relational import columnar, kernels
from repro.relational.expressions import ColumnRef
from repro.sql import executor as _executor
from repro.sql.ast import AggregateCall


def fast_result(project):
    """Vectorized result :class:`~repro.relational.relation.Relation`
    for *project* (a :class:`~repro.plan.plans.ProjectPlan`), or
    ``None`` when only the row path reproduces exact semantics."""
    plans._check_statement_deadline()
    if plans._batch_observer is not None:
        # The observer contract promises every streamed (plan, batch)
        # pair; gathering columns would silently skip it.
        return None
    statement = project.statement
    if statement.has_aggregates() or statement.group_by:
        result = fast_aggregate(project)
        kind = "aggregate"
    else:
        result = fast_project(project)
        kind = "project"
    if obs.enabled():
        obs.counter("plan_vectorized_total",
                    "projections taken by the vectorized fast paths",
                    kind=kind,
                    result="fast" if result is not None else "fallback"
                    ).inc()
    return result


def _chain_mask(scan, filters):
    """``(store, mask)``: the chain's predicates as one column-kernel
    mask over the scan's store (``None`` = every row survives), with
    the scan's actuals set to its full snapshot.  Raises
    :class:`~repro.relational.kernels.UnsupportedKernel` for shapes the
    kernels cannot evaluate exactly."""
    start = time.perf_counter()
    store = scan.relation.column_store()
    scan.actual_rows = len(store.rows)
    scan.actual_time_s = time.perf_counter() - start
    predicates = [predicate for node in filters
                  for predicate in node.predicates]
    return store, kernels.predicate_mask(store, predicates, [scan.binding])


# -- vectorized projection ---------------------------------------------------


def fast_project(project):
    statement = project.statement
    if statement.order_by and not all(
            isinstance(key, ColumnRef) for key in statement.order_by):
        return None
    chain = plans._scan_filter_chain(project.child)
    if chain is None:
        return None
    scan, filters = chain
    scope = project.scope
    # Same expansion + validation as the row path, so unknown columns
    # and ambiguities raise the identical SqlError at the same point.
    items = _executor._projection_items(scope, statement)
    if not all(isinstance(item.expression, ColumnRef) for item in items):
        return None
    try:
        store, mask = _chain_mask(scan, filters)
    except kernels.UnsupportedKernel:
        return None
    selection = kernels.to_selection(mask)
    schema = scan.relation.schema
    positions = [schema.position(item.expression.column) for item in items]
    columns = [_gathered(store, position, selection)
               for position in positions]
    rows = list(zip(*columns)) if columns else []
    survivors = len(rows)
    project.child.actual_rows = survivors
    if statement.order_by:
        sort_columns = [
            _gathered(store, schema.position(key.column), selection)
            for key in statement.order_by]
        order = sorted(range(survivors),
                       key=lambda i: tuple(
                           (column[i] is None,
                            column[i] if column[i] is not None else 0)
                           for column in sort_columns))
        rows = [rows[i] for i in order]
    names = _executor._output_names(items)
    return _executor._plain_result(scope, statement, items, names, rows,
                                   project.result_name)


def _gathered(store, position: int, selection) -> list:
    values = store.values(position)
    if selection is None:
        return list(values)
    return [values[i] for i in selection]


# -- COUNT / GROUP BY over dictionary codes ----------------------------------


def fast_aggregate(project):
    statement = project.statement
    if statement.order_by:
        return None
    chain = plans._scan_filter_chain(project.child)
    if chain is None:
        return None
    scan, filters = chain
    scope = project.scope
    # Same up-front validation as the row path (star/aggregate mixing,
    # GROUP BY membership, reference resolution).
    group_exprs = _executor._validate_grouped(scope, statement)
    if len(group_exprs) > 1:
        return None
    schema = scan.relation.schema
    specs: list[tuple[str, int | None]] = []
    for item in statement.items:
        expression = item.expression
        if item.is_aggregate():
            call: AggregateCall = expression
            if call.op != "count" or call.distinct:
                return None
            if call.operand is None:
                specs.append(("count_star", None))
            elif isinstance(call.operand, ColumnRef):
                specs.append(("count", schema.position(call.operand.column)))
            else:
                return None
        else:
            if not isinstance(expression, ColumnRef):
                return None
            specs.append(("key", None))
    column = None
    if group_exprs:
        group = group_exprs[0]
        if not isinstance(group, ColumnRef):
            return None
        column = scan.relation.column_store().columns[
            schema.position(group.column)]
        if not isinstance(column, columnar.DictionaryColumn):
            return None
    try:
        store, mask = _chain_mask(scan, filters)
    except kernels.UnsupportedKernel:
        return None
    agg_positions = sorted({position for kind, position in specs
                            if kind == "count"})
    if column is not None:
        rows = _grouped_counts(store, mask, column, agg_positions, specs)
    else:
        rows = _global_counts(store, mask, agg_positions, specs)
    project.child.actual_rows = len(rows)
    names = _executor._output_names(statement.items)
    return _executor._grouped_result(scope, statement, names, rows,
                                     project.result_name)


def _global_counts(store, mask, agg_positions, specs) -> list[tuple]:
    """One output row of global COUNTs over the rows *mask* keeps."""
    total_rows = len(store.rows)
    notnull = {position: kernels.count(kernels.combine_and(
                   mask, kernels.notnull_mask(store, position)), total_rows)
               for position in agg_positions}
    total_count = kernels.count(mask, total_rows)
    return [tuple(total_count if kind == "count_star"
                  else notnull[position]
                  for kind, position in specs)]


def _grouped_counts(store, mask, column, agg_positions, specs
                    ) -> list[tuple]:
    """GROUP BY over a dictionary column, reduced over codes: a count
    per code and a non-null count per code per COUNT column, groups in
    order of first appearance, exactly the row path's group order.
    Tallies are indexed by ``code + 1`` so the NULL code (-1) lands in
    slot 0."""
    cardinality = len(column.values)
    np = columnar.numpy_module()
    if np is not None:
        codes = column.np_codes()
        sel_codes = codes if mask is None else codes[mask]
        counts = np.bincount(sel_codes + 1, minlength=cardinality + 1)
        uniq, first = np.unique(sel_codes, return_index=True)
        order_codes = [int(code) for code in uniq[np.argsort(first)]]
        notnull = {}
        for position in agg_positions:
            part = kernels.notnull_mask(store, position)
            if part is None:
                notnull[position] = counts
            else:
                notnull[position] = np.bincount(
                    sel_codes + 1,
                    weights=part if mask is None else part[mask],
                    minlength=cardinality + 1)
    else:
        codes = column.codes
        selection = kernels.to_selection(mask)
        indices = (range(len(store.rows)) if selection is None
                   else selection)
        plain_values = {position: store.values(position)
                        for position in agg_positions}
        counts = [0] * (cardinality + 1)
        order_codes: list[int] = []
        seen: set[int] = set()
        notnull = {position: [0] * (cardinality + 1)
                   for position in agg_positions}
        for i in indices:
            code = codes[i]
            slot = code + 1
            if code not in seen:
                seen.add(code)
                order_codes.append(code)
            counts[slot] += 1
            for position in agg_positions:
                if plain_values[position][i] is not None:
                    notnull[position][slot] += 1

    values_table = column.values
    rows: list[tuple] = []
    for code in order_codes:
        key = None if code < 0 else values_table[code]
        slot = code + 1
        out = []
        for kind, position in specs:
            if kind == "key":
                out.append(key)
            elif kind == "count_star":
                out.append(int(counts[slot]))
            else:
                out.append(int(notnull[position][slot]))
        rows.append(tuple(out))
    return rows


__all__ = ["fast_aggregate", "fast_project", "fast_result"]
