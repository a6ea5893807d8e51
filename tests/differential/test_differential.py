"""Cross-engine differential tests over the synthetic domains.

Each cell replays one generated program through every engine
configuration in the matrix; any outcome or final-state disagreement
is a real engine bug (the kind that produced the pinned corpus cases).
"""

from __future__ import annotations

import pytest

from repro.synth import (
    CONFIGS, DEFAULT_CONFIGS, build_instance, check_conjunct_commutativity,
    check_insert_delete_roundtrip, check_intensional_consistency,
    generate_program, run_differential,
)

#: domain x seed cells; every domain appears, ontology carries the
#: >= 4-level isa hierarchy.
CELLS = [
    ("hospital", 0), ("hospital", 1),
    ("logistics", 0), ("logistics", 2),
    ("ontology", 0), ("ontology", 1),
    ("ship", 0),
]

#: direct-path configs (fast); the wire path gets its own smaller cell.
DIRECT_CONFIGS = ("reference", "planner", "planner-rules", "batch-1",
                  "batch-7", "unbounded", "cached")


class TestMatrix:
    @pytest.mark.parametrize("domain,seed", CELLS)
    def test_direct_configs_agree(self, domain, seed):
        report = run_differential(domain, seed, n_statements=25,
                                  configs=DIRECT_CONFIGS)
        assert report.ok, "\n" + report.render()

    @pytest.mark.parametrize("domain,seed",
                             [("hospital", 0), ("ontology", 0)])
    def test_server_wire_path_agrees(self, domain, seed):
        report = run_differential(domain, seed, n_statements=15,
                                  configs=("reference", "server"))
        assert report.ok, "\n" + report.render()

    @pytest.mark.parametrize("domain", ["hospital", "logistics"])
    def test_adversarial_distributions_agree(self, domain):
        """Band-edge mass and label noise stress induced-rule edges."""
        report = run_differential(domain, 5, n_statements=20,
                                  adversarial=True,
                                  configs=("reference", "planner-rules",
                                           "planner-reinduce", "cached"))
        assert report.ok, "\n" + report.render()

    def test_matrix_breadth(self):
        """ISSUE floor: >= 5 engine configurations, >= 3 domains."""
        assert len(CONFIGS) >= 5
        assert len(DEFAULT_CONFIGS) >= 5
        assert len({domain for domain, _ in CELLS}) >= 3


class TestMetamorphic:
    @pytest.mark.parametrize("domain,seed", [("hospital", 0),
                                             ("ontology", 0),
                                             ("ship", 0)])
    def test_intensional_superset_consistency(self, domain, seed):
        """Every forward intensional answer must hold extensionally
        for every ask-shaped statement of the generated program."""
        instance = build_instance(domain, seed=seed)
        asks = [statement
                for statement in generate_program(instance, 40, seed=seed)
                if statement.kind == "ask"]
        assert asks, "workload generated no ask statements"
        for statement in asks:
            violations = check_intensional_consistency(
                domain, seed, statement.sql)
            assert not violations, "\n".join(violations)

    @pytest.mark.parametrize("domain", ["hospital", "logistics",
                                        "ontology"])
    def test_conjunct_commutativity(self, domain):
        instance = build_instance(domain, seed=0)
        selects = [statement
                   for statement in generate_program(instance, 40, seed=1)
                   if statement.kind in ("select", "ask")
                   and " AND " in statement.sql]
        assert selects
        for statement in selects[:6]:
            assert check_conjunct_commutativity(domain, 0, statement.sql), \
                statement.sql

    @pytest.mark.parametrize("domain", ["hospital", "logistics",
                                        "ontology", "ship"])
    def test_insert_delete_roundtrip(self, domain):
        assert check_insert_delete_roundtrip(domain, 0)


class TestHierarchyDepth:
    def test_ontology_isa_depth(self):
        """The ontology domain carries the >= 4-level isa chain the
        deep-inference paths need."""
        instance = build_instance("ontology", seed=0)
        chain = instance.schema.ancestor_names("SPORT")
        assert chain == ["CAR", "VEHICLE", "MOBILE", "ASSET"]
