"""Fact bookkeeping for type inference.

A *fact* is an interval established for an attribute: either a query
condition ("every answer has Displacement > 8000") or a forward-derived
consequence ("every answer has Type = SSBN").  Facts attach to
*canonical* attributes: the :class:`Canonicalizer` maintains a union-find
over attribute references, seeded with the schema's foreign-key pairs
and extended with the query's equi-join conditions, so that
``INSTALL.Sonar``, ``SONAR.Sonar`` and any aliased references all carry
one shared fact.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import InferenceError
from repro.rules.clause import AttributeRef, Clause, Interval


class Canonicalizer:
    """Union-find over attribute references."""

    def __init__(self, pairs: Iterable[tuple[AttributeRef, AttributeRef]]
                 = ()):
        self._parent: dict[tuple[str, str], AttributeRef] = {}
        for left, right in pairs:
            self.unite(left, right)

    def _find(self, ref: AttributeRef) -> AttributeRef:
        key = ref.key
        parent = self._parent.get(key)
        if parent is None or parent.key == key:
            return ref if parent is None else parent
        root = self._find(parent)
        self._parent[key] = root
        return root

    def canon(self, ref: AttributeRef) -> AttributeRef:
        """The representative reference of *ref*'s equivalence class."""
        return self._find(ref)

    def unite(self, left: AttributeRef, right: AttributeRef) -> None:
        root_left = self._find(left)
        root_right = self._find(right)
        if root_left.key != root_right.key:
            # Keep the right root (FK pairs are (referencing, referenced),
            # so referenced key attributes become representatives).
            self._parent[root_left.key] = root_right
            self._parent.setdefault(root_right.key, root_right)

    def copy(self) -> "Canonicalizer":
        clone = Canonicalizer()
        clone._parent = dict(self._parent)
        return clone

    def equivalent(self, left: AttributeRef, right: AttributeRef) -> bool:
        return self.canon(left).key == self.canon(right).key


class FactEntry:
    """One attribute's established interval plus its provenance."""

    __slots__ = ("interval", "sources")

    def __init__(self, interval: Interval, sources: tuple):
        self.interval = interval
        self.sources = sources


class FactBase:
    """Canonicalized interval facts with provenance tracking."""

    def __init__(self, canonicalizer: Canonicalizer | None = None,
                 domains: dict[AttributeRef, Interval] | None = None):
        self.canonicalizer = canonicalizer or Canonicalizer()
        self._facts: dict[tuple[str, str], tuple[AttributeRef, FactEntry]] = {}
        self._domains: dict[tuple[str, str], Interval] = {}
        #: Per-attribute memos (the canonicalizer must not change once
        #: facts exist): key -> canonical key, canonical key -> member
        #: keys, and canonical key -> fact within its domain.
        self._keys: dict[tuple[str, str], tuple[str, str]] = {}
        self._members: dict[tuple[str, str], list] | None = None
        self._effective: dict[tuple[str, str], Interval | None] = {}
        for ref, interval in (domains or {}).items():
            self._domains[self.key_of(ref)] = interval

    def key_of(self, ref: AttributeRef) -> tuple[str, str]:
        """The key of *ref*'s canonical representative."""
        key = self._keys.get(ref.key)
        if key is None:
            key = self._keys[ref.key] = self.canonicalizer.canon(ref).key
        return key

    def members(self, key: tuple[str, str]) -> Sequence[tuple[str, str]]:
        """Keys of every attribute whose canonical key is *key*: the
        foreign-key and join-equivalent spellings sharing its fact."""
        if self._members is None:
            self._members = {}
            for member, parent in list(self.canonicalizer._parent.items()):
                self._members.setdefault(self.key_of(parent), []).append(
                    member)
        return self._members.get(key) or (key,)

    # -- domains -----------------------------------------------------------

    def domain_for(self, ref: AttributeRef) -> Interval | None:
        return self._domains.get(self.key_of(ref))

    def effective(self, key: tuple[str, str]) -> Interval | None:
        """The fact on the canonical *key*, which must carry one,
        narrowed to its declared domain: the interval :meth:`implies`
        tests; ``None`` when the fact excludes every legal value."""
        if key not in self._effective:
            interval = self._facts[key][1].interval
            domain = self._domains.get(key)
            self._effective[key] = (interval if domain is None
                                    else interval.intersect(domain))
        return self._effective[key]

    def implies(self, clause: Clause) -> bool:
        """Whether the fact on *clause*'s attribute, narrowed to its
        declared domain, lies inside the clause interval (Displacement >
        8000 within [2000..30000] does inside [7250..30000]); a fact
        excluding every legal value implies anything."""
        key = self.key_of(clause.attribute)
        if key not in self._facts:
            return False
        effective = self.effective(key)
        return effective is None or clause.interval.contains(effective)

    # -- facts ---------------------------------------------------------------

    def assert_interval(self, ref: AttributeRef, interval: Interval,
                        source: Any) -> bool:
        """Record that every answer's *ref* lies in *interval*.

        Multiple assertions on one attribute intersect (all of them hold
        simultaneously).  Returns True when the stored fact narrowed.
        A contradictory assertion (empty intersection) raises -- it
        means the query is unsatisfiable against the knowledge base.
        """
        canon = self.canonicalizer.canon(ref)
        self._effective.pop(canon.key, None)
        existing = self._facts.get(canon.key)
        if existing is None:
            self._facts[canon.key] = (canon, FactEntry(interval, (source,)))
            return True
        merged = existing[1].interval.intersect(interval)
        if merged is None:
            raise InferenceError(
                f"contradictory facts on {canon.render()}: "
                f"{existing[1].interval!r} vs {interval!r}")
        if merged == existing[1].interval:
            return False
        self._facts[canon.key] = (
            canon, FactEntry(merged, existing[1].sources + (source,)))
        return True

    def interval_for(self, ref: AttributeRef) -> Interval | None:
        entry = self._facts.get(self.key_of(ref))
        return entry[1].interval if entry else None

    def sources_for(self, ref: AttributeRef) -> tuple:
        entry = self._facts.get(self.key_of(ref))
        return entry[1].sources if entry else ()

    def facts(self) -> list[tuple[AttributeRef, Interval, tuple]]:
        """(canonical ref, interval, sources) triples, insertion order."""
        return [(ref, entry.interval, entry.sources)
                for ref, entry in self._facts.values()]

    def add_condition(self, clause: Clause) -> None:
        """Record a query condition clause."""
        self.assert_interval(clause.attribute, clause.interval, "query")

    def __len__(self) -> int:
        return len(self._facts)
