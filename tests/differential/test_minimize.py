"""The ddmin statement-list minimizer."""

from __future__ import annotations

from repro.synth import Statement, minimize
from repro.synth.differential import _split_conjuncts


def _statements(n):
    return [Statement("select", f"SELECT * FROM T{i}") for i in range(n)]


class TestDdmin:
    def test_single_culprit(self):
        """A fault triggered by one statement minimizes to exactly it."""
        statements = _statements(16)
        culprit = statements[11]

        def predicate(subset):
            return culprit in subset

        core = minimize("hospital", 0, statements,
                        configs=("reference",), predicate=predicate)
        assert core == [culprit]

    def test_interacting_pair(self):
        """A fault needing two statements keeps both and only both."""
        statements = _statements(20)
        first, second = statements[3], statements[17]

        def predicate(subset):
            return first in subset and second in subset

        core = minimize("hospital", 0, statements,
                        configs=("reference",), predicate=predicate)
        assert core == [first, second]

    def test_order_preserved(self):
        statements = _statements(12)
        needed = {statements[2], statements[5], statements[9]}

        def predicate(subset):
            return needed <= set(subset)

        core = minimize("hospital", 0, statements,
                        configs=("reference",), predicate=predicate)
        assert core == [statements[2], statements[5], statements[9]]

    def test_non_diverging_program_returned_whole(self):
        statements = _statements(5)
        core = minimize("hospital", 0, statements,
                        configs=("reference",),
                        predicate=lambda subset: False)
        assert core == statements

    def test_real_divergence_minimizes(self):
        """An injected engine fault (a predicate that flags any DELETE)
        drives the real ddmin loop down to one statement."""
        statements = [
            Statement("select", "SELECT * FROM A"),
            Statement("dml", "INSERT INTO A (X) VALUES (1)"),
            Statement("dml", "DELETE FROM A WHERE A.X = 1"),
            Statement("select", "SELECT * FROM B"),
        ]

        def predicate(subset):
            return any(s.sql.startswith("DELETE") for s in subset)

        core = minimize("hospital", 0, statements,
                        configs=("reference",), predicate=predicate)
        assert core == [statements[2]]


class TestSplitConjuncts:
    def test_plain(self):
        head, conjuncts, tail = _split_conjuncts(
            "SELECT * FROM T WHERE T.A = 1 AND T.B >= 2")
        assert head == "SELECT * FROM T"
        assert conjuncts == ["T.A = 1", "T.B >= 2"]
        assert tail == ""

    def test_tail_preserved(self):
        head, conjuncts, tail = _split_conjuncts(
            "SELECT T.A FROM T WHERE T.A = 1 AND T.B = 2 ORDER BY T.A")
        assert conjuncts == ["T.A = 1", "T.B = 2"]
        assert tail == " ORDER BY T.A"

    def test_no_where(self):
        head, conjuncts, tail = _split_conjuncts("SELECT * FROM T")
        assert conjuncts == []
