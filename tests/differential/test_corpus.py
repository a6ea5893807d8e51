"""Pinned counterexample corpus: every case in ``corpus/`` was once a
real cross-engine divergence, got minimized, and the underlying bug
fixed -- replaying it must stay divergence-free forever.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.synth import load_case, replay_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CASES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _case_id(path):
    return os.path.splitext(os.path.basename(path))[0]


class TestCorpus:
    def test_corpus_not_empty(self):
        assert CASES, "the counterexample corpus must hold >= 1 case"

    @pytest.mark.parametrize("path", CASES, ids=_case_id)
    def test_case_well_formed(self, path):
        payload = load_case(path)
        for field in ("domain", "seed", "configs", "statements", "note"):
            assert field in payload, f"{path} missing {field!r}"
        assert len(payload["configs"]) >= 2
        assert payload["statements"]
        assert payload["note"], "a case must explain the original bug"

    @pytest.mark.parametrize("path", CASES, ids=_case_id)
    def test_case_replays_clean(self, path):
        report = replay_case(load_case(path))
        assert report.ok, "\n" + report.render()


class TestStaleRulesPin:
    """The founding corpus entry: the rule-base freshness guard.

    Before the guard, INSERTing a CLASS row that violates an induced
    Displacement->Type interval rule left the planner free to
    short-circuit a matching SELECT to empty while the rule-free engine
    (now the reference evaluator) returned the new row.  The case must
    diverge again the moment the guard is bypassed -- proving the pin is
    load-bearing, not vacuous.
    """

    PATH = os.path.join(CORPUS_DIR, "stale_rules_class_insert.json")

    def test_pin_exists(self):
        assert os.path.exists(self.PATH)
        payload = json.load(open(self.PATH))
        assert payload["configs"] == ["reference", "planner-rules"]

    def test_diverges_without_freshness_guard(self, monkeypatch):
        from repro.rules.ruleset import RuleSet
        monkeypatch.setattr(RuleSet, "fresh_for",
                            lambda self, relation: True)
        report = replay_case(load_case(self.PATH))
        assert not report.ok, (
            "corpus case no longer reproduces with the guard disabled; "
            "the pin has gone vacuous")
