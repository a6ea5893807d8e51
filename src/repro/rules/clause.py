"""Intervals, attribute references, and clauses.

A paper clause is the triple ``(lvalue, attribute, uvalue)`` meaning
``lvalue <= attribute <= uvalue`` (both inclusive); equality is the
degenerate case ``lvalue == uvalue``.  Query conditions additionally need
open and half-unbounded intervals (``Displacement > 8000``), so the
:class:`Interval` value type supports those too; induced rules only ever
construct the closed bounded form.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import RuleError, TypeMismatchError
from repro.relational.datatypes import DataType, comparable, infer_type


class Interval:
    """An interval over one attribute's (totally ordered) domain.

    ``low``/``high`` of ``None`` mean unbounded on that side.
    ``low_open``/``high_open`` select strict inequality.  The canonical
    "everything" interval is ``Interval(None, None)``.
    """

    __slots__ = ("low", "high", "low_open", "high_open")

    def __init__(self, low: Any = None, high: Any = None,
                 low_open: bool = False, high_open: bool = False):
        if low is not None and high is not None:
            try:
                inverted = low > high
            except TypeError as exc:
                raise RuleError(
                    f"interval bounds {low!r} and {high!r} are not "
                    f"comparable") from exc
            if inverted:
                raise RuleError(f"empty interval [{low!r}, {high!r}]")
            if low == high and (low_open or high_open):
                raise RuleError(
                    f"degenerate open interval at {low!r} is empty")
        self.low = low
        self.high = high
        self.low_open = bool(low_open) and low is not None
        self.high_open = bool(high_open) and high is not None

    # -- constructors -----------------------------------------------------

    @classmethod
    def point(cls, value: Any) -> "Interval":
        """The single-value interval ``[value, value]``."""
        if value is None:
            raise RuleError("point interval needs a value")
        return cls(value, value)

    @classmethod
    def closed(cls, low: Any, high: Any) -> "Interval":
        return cls(low, high)

    @classmethod
    def at_least(cls, low: Any, strict: bool = False) -> "Interval":
        return cls(low=low, low_open=strict)

    @classmethod
    def at_most(cls, high: Any, strict: bool = False) -> "Interval":
        return cls(high=high, high_open=strict)

    @classmethod
    def everything(cls) -> "Interval":
        return cls()

    @classmethod
    def from_comparison(cls, op: str, value: Any) -> "Interval":
        """Interval of values v with ``v <op> value``."""
        if op == "=":
            return cls.point(value)
        if op == "<":
            return cls.at_most(value, strict=True)
        if op == "<=":
            return cls.at_most(value)
        if op == ">":
            return cls.at_least(value, strict=True)
        if op == ">=":
            return cls.at_least(value)
        raise RuleError(f"operator {op!r} does not describe an interval")

    # -- predicates ----------------------------------------------------------

    def is_point(self) -> bool:
        return (self.low is not None and self.low == self.high
                and not self.low_open and not self.high_open)

    def is_unbounded(self) -> bool:
        return self.low is None and self.high is None

    def contains_value(self, value: Any) -> bool:
        if value is None:
            return False
        if self.low is not None:
            if self.low_open and not value > self.low:
                return False
            if not self.low_open and not value >= self.low:
                return False
        if self.high is not None:
            if self.high_open and not value < self.high:
                return False
            if not self.high_open and not value <= self.high:
                return False
        return True

    def contains(self, other: "Interval") -> bool:
        """Whether every value of *other* lies in *self* (subsumption)."""
        if self.low is not None:
            if other.low is None:
                return False
            if other.low < self.low:
                return False
            if other.low == self.low and self.low_open and not other.low_open:
                return False
        if self.high is not None:
            if other.high is None:
                return False
            if other.high > self.high:
                return False
            if (other.high == self.high and self.high_open
                    and not other.high_open):
                return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        """Whether the intervals share at least one value.

        Exact for discrete or continuous domains alike: bounds touching
        with either side open do not overlap.
        """
        if self.low is not None and other.high is not None:
            if self.low > other.high:
                return False
            if self.low == other.high and (self.low_open or other.high_open):
                return False
        if self.high is not None and other.low is not None:
            if other.low > self.high:
                return False
            if other.low == self.high and (other.low_open or self.high_open):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """The intersection, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        low, low_open = self.low, self.low_open
        if other.low is not None and (
                low is None or other.low > low
                or (other.low == low and other.low_open)):
            low, low_open = other.low, other.low_open
        high, high_open = self.high, self.high_open
        if other.high is not None and (
                high is None or other.high < high
                or (other.high == high and other.high_open)):
            high, high_open = other.high, other.high_open
        return Interval(low, high, low_open=low_open, high_open=high_open)

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Interval)
                and self.low == other.low and self.high == other.high
                and self.low_open == other.low_open
                and self.high_open == other.high_open)

    def __hash__(self) -> int:
        return hash((self.low, self.high, self.low_open, self.high_open))

    def render(self, name: str = "X") -> str:
        """Readable rendering, e.g. ``7250 <= X <= 30000`` or ``X = 5``."""
        if self.is_point():
            return f"{name} = {_fmt(self.low)}"
        parts = []
        if self.low is not None:
            parts.append(
                f"{_fmt(self.low)} {'<' if self.low_open else '<='} {name}")
        if self.high is not None:
            if parts:
                parts[0] += f" {'<' if self.high_open else '<='} " + _fmt(
                    self.high)
            else:
                parts.append(
                    f"{name} {'<' if self.high_open else '<='} "
                    f"{_fmt(self.high)}")
        if not parts:
            return f"{name} is anything"
        return parts[0]

    def __repr__(self) -> str:
        lo = "(" if self.low_open else "["
        hi = ")" if self.high_open else "]"
        return f"Interval{lo}{self.low!r}, {self.high!r}{hi}"


def comparison_interval(op: str, datatype: DataType,
                        value: Any) -> Interval | None:
    """The interval of ``column <op> value`` for a column of *datatype*,
    or ``None`` when no interval stands for the comparison: *op* is
    ``!=``, *value* is NULL (the comparison is never true), or *value*
    cannot be compared with the column's values.  Evaluated row by row,
    such a comparison raises its type error, so the planner keeps it a
    predicate (no index probe, no folding) and inference leaves it
    unused.
    """
    if op == "!=" or value is None:
        return None
    try:
        literal_type = infer_type(value)
    except TypeMismatchError:
        return None
    if not comparable(datatype, literal_type):
        return None
    return Interval.from_comparison(op, value)


def _fmt(value: Any) -> str:
    if isinstance(value, str):
        return value
    return str(value)


class AttributeRef:
    """A relation-qualified attribute name, e.g. ``CLASS.Displacement``.

    Matching is case-insensitive; the declared spelling is preserved.
    """

    __slots__ = ("relation", "attribute", "key")

    def __init__(self, relation: str, attribute: str):
        if not relation or not attribute:
            raise RuleError("attribute reference needs relation and name")
        self.relation = relation
        self.attribute = attribute
        #: ``(relation, attribute)`` lowered: the matching and index key.
        self.key = (relation.lower(), attribute.lower())

    @classmethod
    def parse(cls, text: str) -> "AttributeRef":
        relation, _sep, attribute = text.partition(".")
        if not _sep:
            raise RuleError(
                f"attribute reference {text!r} must be relation.attribute")
        return cls(relation, attribute)

    def render(self) -> str:
        return f"{self.relation}.{self.attribute}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttributeRef) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"AttributeRef({self.render()})"


class Clause:
    """An attribute value-range clause: ``attribute in interval``."""

    __slots__ = ("attribute", "interval")

    def __init__(self, attribute: AttributeRef, interval: Interval):
        self.attribute = attribute
        self.interval = interval

    @classmethod
    def between(cls, attribute: AttributeRef | str, low: Any,
                high: Any) -> "Clause":
        if isinstance(attribute, str):
            attribute = AttributeRef.parse(attribute)
        return cls(attribute, Interval.closed(low, high))

    @classmethod
    def equals(cls, attribute: AttributeRef | str, value: Any) -> "Clause":
        if isinstance(attribute, str):
            attribute = AttributeRef.parse(attribute)
        return cls(attribute, Interval.point(value))

    @property
    def lvalue(self) -> Any:
        """Paper terminology: the inclusive lower limit."""
        return self.interval.low

    @property
    def uvalue(self) -> Any:
        """Paper terminology: the inclusive upper limit."""
        return self.interval.high

    def is_equality(self) -> bool:
        return self.interval.is_point()

    def satisfied_by(self, value: Any) -> bool:
        return self.interval.contains_value(value)

    def implies(self, other: "Clause") -> bool:
        """Whether this clause logically implies *other* (same attribute,
        interval contained)."""
        return (self.attribute == other.attribute
                and other.interval.contains(self.interval))

    def render(self) -> str:
        return self.interval.render(self.attribute.render())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Clause)
                and self.attribute == other.attribute
                and self.interval == other.interval)

    def __hash__(self) -> int:
        return hash((self.attribute, self.interval))

    def __repr__(self) -> str:
        return f"Clause({self.render()})"


def merge_point_clauses(clauses: Iterable[Clause]) -> list[Clause]:
    """Collapse clauses on the same attribute by interval intersection.

    Returns the minimal clause list; raises :class:`RuleError` if two
    clauses on one attribute are contradictory (empty intersection).
    """
    by_attribute: dict[AttributeRef, Interval] = {}
    order: list[AttributeRef] = []
    for clause in clauses:
        if clause.attribute not in by_attribute:
            by_attribute[clause.attribute] = clause.interval
            order.append(clause.attribute)
            continue
        merged = by_attribute[clause.attribute].intersect(clause.interval)
        if merged is None:
            raise RuleError(
                f"contradictory clauses on {clause.attribute.render()}")
        by_attribute[clause.attribute] = merged
    return [Clause(attribute, by_attribute[attribute]) for attribute in order]
