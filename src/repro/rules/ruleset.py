"""Rule sets and rule schemes.

"The rules generated for the same attribute pair (X, Y) consist of the
rule set designated by the rule scheme X --> Y" (Section 5.2.1).  A
:class:`RuleSet` is the whole knowledge base's rule collection; a
:class:`RuleScheme` is one ``X --> Y`` group within it.

The set keeps lookup indexes by premise and consequence attribute, which
the inference processor uses for forward and backward chaining
respectively, and the planner's semantic pass for its premise lookups.
The ILS emits each scheme as maximal runs ``if x1 <= X <= x2 then Y =
y``, so one scheme's single-premise rules have pairwise disjoint
premises and at most one of them can contain a fact: the set keeps them
sorted by premise, and a lookup finds that one by bisect.  Point
conclusions are likewise kept sorted by value, so the conclusions a fact
contains are one range.  Every other rule stays in an ascending list of
positions per attribute, which every lookup on that attribute yields.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule

#: Process-wide monotonic source for :attr:`RuleSet.version`.  Every
#: construction and every mutation of *any* rule set draws a fresh
#: number, so two rule sets never share a version and a changed rule
#: base can never be mistaken for the one a cache entry was keyed on.
_VERSIONS = itertools.count(1)


class RuleScheme:
    """The rules sharing one premise/consequence attribute signature."""

    def __init__(self, lhs_attributes: Sequence[AttributeRef],
                 rhs_attribute: AttributeRef, rules: Sequence[Rule]):
        self.lhs_attributes = tuple(lhs_attributes)
        self.rhs_attribute = rhs_attribute
        self.rules = tuple(rules)

    def render(self) -> str:
        lhs = ", ".join(a.render() for a in self.lhs_attributes)
        return f"{lhs} --> {self.rhs_attribute.render()}"

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __repr__(self) -> str:
        return f"<RuleScheme {self.render()}, {len(self.rules)} rules>"


class _SortedRules:
    """One scheme's runs: the positions of rules with a closed, bounded
    premise, sorted by its low bound, with the bounds aligned; the
    premises are pairwise disjoint."""

    __slots__ = ("lows", "highs", "positions")

    def __init__(self):
        self.lows: list = []
        self.highs: list = []
        self.positions: list[int] = []

    def insert(self, premise: Interval, position: int) -> bool:
        """Insert the rule at *position*; False, inserting nothing, when
        its premise overlaps a neighbour or its bounds do not order with
        the others' (a ``TypeError``, or a NaN, which fails every
        comparison)."""
        low, high = premise.low, premise.high
        try:
            at = bisect_right(self.lows, low)
            if not (low <= high
                    and (not at or self.highs[at - 1] < low)
                    and (at == len(self.lows) or high < self.lows[at])):
                return False
        except TypeError:
            return False
        self.lows.insert(at, low)
        self.highs.insert(at, high)
        self.positions.insert(at, position)
        return True

    def containing(self, fact: Interval | None) -> list[int]:
        """Positions of the runs that may contain *fact*: the run with
        the greatest low bound at most the fact's, since the runs before
        it end below that bound; none when the fact is unbounded on a
        side.  All of them for ``None`` (a fact excluding every legal
        value, which implies any premise) and for bounds that do not
        order with the runs'."""
        if fact is None:
            return self.positions
        if fact.low is None or fact.high is None:
            return []
        try:
            if not fact.low <= fact.high:
                return self.positions
            at = bisect_right(self.lows, fact.low)
        except TypeError:
            return self.positions
        return self.positions[at - 1:at]


def _inside(values: list, fact: Interval) -> slice:
    """The slice of the sorted *values* that may lie inside *fact*, open
    bounds respected: all of them when a bound does not order with
    theirs (a ``TypeError``, or a NaN, which compares false with every
    value)."""
    low, high = fact.low, fact.high
    if low != low or high != high:
        return slice(None)
    try:
        start = (0 if low is None else (
            bisect_right if fact.low_open else bisect_left)(values, low))
        end = (len(values) if high is None else (
            bisect_left if fact.high_open else bisect_right)(values, high))
    except TypeError:
        return slice(None)
    return slice(start, end)


class RuleSet:
    """An ordered collection of rules with attribute indexes.

    Rule numbers are assigned on insertion (1-based, stable), matching
    the paper's R1..R17 numbering style.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: list[Rule] = []
        #: Attribute key -> ascending 0-based positions of the rules with
        #: a premise (``_by_lhs``) or the consequence (``_by_rhs``) on it
        #: that no sorted structure below holds.  ``_by_lhs`` has an
        #: entry, maybe empty, for every premise attribute.
        self._by_lhs: dict[tuple[str, str], list[int]] = {}
        self._by_rhs: dict[tuple[str, str], list[int]] = {}
        #: Premise attribute key -> consequence attribute key -> the
        #: scheme's single-premise rules with a closed, bounded premise,
        #: sorted by premise; ``None`` once the scheme fell back.
        self._runs: dict[tuple[str, str],
                         dict[tuple[str, str], _SortedRules | None]] = {}
        #: Consequence attribute key -> the values of the point
        #: conclusions on it, sorted, and their rule positions, aligned;
        #: an entry, maybe empty, for every consequence attribute.
        self._points: dict[tuple[str, str], tuple[list, list[int]]] = {}
        #: Rule-base version: a process-unique integer reassigned on
        #: every :meth:`add`.  The query cache keys plan entries and
        #: intensional answers on it, so swapping in a re-induced rule
        #: set (or mutating this one) invalidates them all at once.
        self.version = next(_VERSIONS)
        #: Induction basis: relation name (lower) -> mutation version at
        #: the moment the rules were induced, or ``None`` when unknown.
        #: An induced rule is a fact about one specific database state;
        #: :meth:`fresh_for` lets consumers that *rewrite queries* with
        #: the rules (the planner's semantic optimizer) verify the state
        #: has not moved underneath them.  ``None`` preserves the legacy
        #: trust-the-caller behaviour (recovered rule bases are guarded
        #: by the storage engine's ``rule_sync`` staleness flag instead).
        self.basis: dict[str, int] | None = None
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> Rule:
        position = len(self._rules)
        rule.number = position + 1
        self._rules.append(rule)
        if not self._add_run(rule, position):
            for clause in rule.lhs:
                positions = self._by_lhs.setdefault(clause.attribute.key, [])
                if not positions or positions[-1] != position:
                    positions.append(position)
        if not self._add_point(rule.rhs, position):
            self._by_rhs.setdefault(rule.rhs.attribute.key, []).append(
                position)
        self.version = next(_VERSIONS)
        return rule

    def _add_run(self, rule: Rule, position: int) -> bool:
        """File *rule* among its scheme's runs; False when it falls back
        to the position lists: it has several premises, an open or
        unbounded one, or its scheme's premises overlap or do not order
        (then the scheme's earlier runs fall back with it)."""
        premise = rule.lhs[0].interval
        if (len(rule.lhs) > 1 or premise.low is None or premise.high is None
                or premise.low_open or premise.high_open):
            return False
        key = rule.lhs[0].attribute.key
        self._by_lhs.setdefault(key, [])
        schemes = self._runs.setdefault(key, {})
        runs = schemes.setdefault(rule.rhs.attribute.key, _SortedRules())
        if runs is None:
            return False
        if runs.insert(premise, position):
            return True
        schemes[rule.rhs.attribute.key] = None
        self._by_lhs[key] = sorted(self._by_lhs[key] + runs.positions)
        return False

    def _add_point(self, conclusion: Clause, position: int) -> bool:
        """File the rule at *position* among its attribute's point
        conclusions; False when it falls back to the position list: its
        conclusion is no point (a NaN point is none, as NaN != NaN) or
        its value does not order with theirs."""
        values, positions = self._points.setdefault(
            conclusion.attribute.key, ([], []))
        if not conclusion.interval.is_point():
            return False
        value = conclusion.interval.low
        try:
            at = bisect_right(values, value)
        except TypeError:
            return False
        values.insert(at, value)
        positions.insert(at, position)
        return True

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, number: int) -> Rule:
        """Rule by its 1-based rule number."""
        if not 1 <= number <= len(self._rules):
            raise IndexError(f"no rule numbered {number}")
        return self._rules[number - 1]

    def premise_positions(self, key: tuple[str, str],
                          fact: Interval | None) -> list[int]:
        """Positions of the rules with a premise on attribute *key* that
        *fact* may imply: every rule in the position list, and in each
        scheme the one run that can contain *fact*.  ``None`` stands for
        a fact excluding every legal value, which implies any premise."""
        positions = list(self._by_lhs.get(key, ()))
        for runs in self._runs.get(key, {}).values():
            if runs is not None:
                positions.extend(runs.containing(fact))
        return positions

    def conclusion_positions(self, key: tuple[str, str],
                             fact: Interval) -> list[int]:
        """Positions of the rules concluding on attribute *key* whose
        conclusion *fact* may contain: the point conclusions inside it
        and every rule in the position list."""
        values, positions = self._points.get(key, ([], []))
        return positions[_inside(values, fact)] + self._by_rhs.get(key, [])

    def schemes(self) -> list[RuleScheme]:
        """Group rules into their ``X --> Y`` rule schemes (stable order)."""
        groups: dict[tuple, list[Rule]] = {}
        order: list[tuple] = []
        for rule in self._rules:
            key = rule.scheme_key()
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(rule)
        out = []
        for key in order:
            rules = groups[key]
            out.append(RuleScheme(
                [clause.attribute for clause in rules[0].lhs],
                rules[0].rhs.attribute, rules))
        return out

    # -- induction basis -----------------------------------------------------

    def record_basis(self, database) -> None:
        """Stamp the rule set with the mutation version of every
        relation in *database*: the state these rules were induced from.
        Call right after induction, before any DML can interleave."""
        self.basis = {name.lower(): database.relation(name).version
                      for name in database.catalog.names()}

    def references(self, relation_name: str) -> bool:
        """Whether any rule mentions *relation_name* (premise or
        conclusion)."""
        key = relation_name.lower()
        return any(attr_key[0] == key for attr_key in self._by_lhs) or any(
            attr_key[0] == key for attr_key in self._points)

    def fresh_for(self, relation) -> bool:
        """Whether query rewrites against *relation* are still sound.

        True when no basis was recorded (trusted caller), when the
        relation's mutation version still matches the basis, or when no
        rule mentions the relation (nothing could rewrite it anyway).
        """
        if self.basis is None:
            return True
        if self.basis.get(relation.name.lower()) == relation.version:
            return True
        return not self.references(relation.name)

    # -- transformation -----------------------------------------------------

    def filtered(self, keep) -> "RuleSet":
        """New rule set with only the rules satisfying *keep* (renumbered)."""
        out = RuleSet(
            Rule(rule.lhs, rule.rhs, support=rule.support,
                 rhs_subtype=rule.rhs_subtype, source=rule.source)
            for rule in self._rules if keep(rule))
        out.basis = None if self.basis is None else dict(self.basis)
        return out

    def merged_with(self, other: "RuleSet") -> "RuleSet":
        merged = RuleSet()
        for rule in list(self) + list(other):
            merged.add(Rule(rule.lhs, rule.rhs, support=rule.support,
                            rhs_subtype=rule.rhs_subtype, source=rule.source))
        # Declarative (schema) rule sets carry no basis; an induced
        # basis survives the merge so freshness checks keep working.
        bases = [b for b in (self.basis, other.basis) if b is not None]
        if bases:
            combined: dict[str, int] = {}
            for basis in bases:
                combined.update(basis)
            merged.basis = combined
        return merged

    def render(self, isa_style: bool = False) -> str:
        return "\n".join(rule.render(isa_style=isa_style)
                         for rule in self._rules)

    def __repr__(self) -> str:
        return f"<RuleSet {len(self._rules)} rules>"


class RuleAgenda:
    """Rule positions visited in rounds, each round in rule-number order.

    A fixpoint loop visiting only the rules its index lookups yield must
    check them in the order a scan of the whole set would: a position
    scheduled mid-round joins the round when it comes after the rule
    being visited, and the next round otherwise.
    """

    def __init__(self, rules: RuleSet, positions: Iterable[int]):
        self._rules = rules._rules
        self._next = set(positions)

    def next_round(self) -> bool:
        """Start the next round; False when it has no rules to visit."""
        self._order, self._next, self._index = sorted(self._next), set(), 0
        return bool(self._order)

    def __iter__(self) -> Iterator[Rule]:
        while self._index < len(self._order):
            self._index += 1
            yield self._rules[self._order[self._index - 1]]

    def schedule(self, positions: Iterable[int]) -> None:
        """Revisit *positions*: the rule being visited changed a fact
        their premises read."""
        current = self._order[self._index - 1]
        for position in positions:
            if position <= current:
                self._next.add(position)
                continue
            at = bisect_left(self._order, position, self._index)
            if self._order[at:at + 1] != [position]:
                self._order.insert(at, position)
