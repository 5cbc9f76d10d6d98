"""Tests for pattern reductions (repro.core.transformations, paper §5)."""
import pytest

from repro.core.pattern import Op, Predicate, conj, seq
from repro.core.stats import PatternStats, kleene_pseudo_count
from repro.core.transformations import (
    TS_SEL,
    OpNode,
    event,
    op_and,
    op_or,
    op_seq,
    seq_to_and,
    to_dnf,
)

RATES = {"A": 2.0, "B": 5.0, "C": 0.5, "D": 8.0}


class TestSeqToAnd:
    def test_operator_switched(self):
        p = seq_to_and(seq("ABC", window=5.0))
        assert p.op is Op.AND

    def test_adjacent_ts_predicates_added(self):
        p = seq_to_and(seq("ABC", window=5.0))
        ts = [q for q in p.predicates if q.kind == "ts_lt"]
        assert [(q.i, q.j) for q in ts] == [(0, 1), (1, 2)]
        assert all(q.sel == TS_SEL for q in ts)

    def test_original_predicates_kept(self):
        orig = (Predicate(0, 2, sel=0.1),)
        p = seq_to_and(seq("ABC", orig, window=5.0))
        assert orig[0] in p.predicates

    def test_rejects_non_sequence(self):
        with pytest.raises(ValueError):
            seq_to_and(conj("AB"))

    def test_window_and_markers_preserved(self):
        p = seq_to_and(seq("ABCD", window=7.0, negated=(1,), kleene=(2,)))
        assert p.window == 7.0
        assert p.negated == frozenset({1}) and p.kleene == frozenset({2})

    def test_stats_of_reduced_pattern_match_pairwise_mode(self):
        """Theorem 3's reduction == the 'pairwise' temporal mode."""
        s = seq("ABC", (Predicate(0, 2, sel=0.1),), window=5.0)
        st_pairwise = PatternStats.from_pattern(s, RATES, temporal_mode="pairwise")
        st_reduced = PatternStats.from_pattern(
            seq_to_and(s), RATES, temporal_mode="none"
        )
        assert (st_pairwise.sel == st_reduced.sel).all()
        assert (st_pairwise.counts == st_reduced.counts).all()


class TestKleene:
    def test_pseudo_count_is_power_set_size(self):
        # W·r = 10·0.5 = 5 events expected → 2^5 subsets
        assert kleene_pseudo_count(0.5, 10.0) == 32.0

    def test_pseudo_count_capped(self):
        assert kleene_pseudo_count(10.0, 1e6) == 2.0**64

    def test_stats_use_pseudo_count(self):
        p = conj("ABC", kleene=(1,), window=10.0)
        st = PatternStats.from_pattern(p, RATES)
        assert st.counts[1] == kleene_pseudo_count(RATES["B"], 10.0)

    def test_kleene_pushed_late_by_planner(self):
        """Theorem 4's point: the inflated rate postpones the KL type."""
        from repro.core.cost_model import Objective
        from repro.core.order_algorithms import dp_ld

        p = conj("ABC", kleene=(1,), window=10.0)
        st = PatternStats.from_pattern(p, RATES)
        res = dp_ld(Objective(st))
        assert res.plan.order[-1] == 1


def negation_dependencies(pattern):
    """The positions each absence check waits for (§5.3): the keys of
    :meth:`Pattern.absence_conditions`."""
    return {j: frozenset(pattern.absence_conditions(j)) for j in sorted(pattern.negated)}


class TestNegationDependencies:
    def test_seq_neighbours(self):
        # SEQ(A, NOT(B), C, D): B depends on A and C
        deps = negation_dependencies(seq("ABCD", negated=(1,)))
        assert deps == {1: frozenset({0, 2})}

    def test_seq_negated_first(self):
        deps = negation_dependencies(seq("ABC", negated=(0,)))
        assert deps == {0: frozenset({1})}

    def test_seq_negated_last(self):
        deps = negation_dependencies(seq("ABC", negated=(2,)))
        assert deps == {2: frozenset({1})}

    def test_seq_skips_negated_neighbours(self):
        deps = negation_dependencies(seq("ABCD", negated=(1, 2)))
        assert deps[1] == frozenset({0, 3})
        assert deps[2] == frozenset({0, 3})

    def test_predicate_partners_added(self):
        p = seq("ABCD", (Predicate(1, 3, sel=0.2),), negated=(1,))
        assert negation_dependencies(p)[1] == frozenset({0, 2, 3})

    def test_and_pattern_only_partners(self):
        p = conj("ABC", (Predicate(0, 1, sel=0.2),), negated=(1,))
        assert negation_dependencies(p) == {1: frozenset({0})}

    def test_and_pattern_no_partners(self):
        assert negation_dependencies(conj("ABC", negated=(1,))) == {
            1: frozenset()
        }


class TestDNF:
    def test_leaf(self):
        p = to_dnf(event("A"), window=2.0)
        assert p.op is Op.AND and p.types == ("A",)

    def test_flat_and(self):
        p = to_dnf(op_and(event("A"), event("B")), window=2.0)
        assert p.types == ("A", "B") and not p.predicates

    def test_flat_seq_gets_ts_predicates(self):
        p = to_dnf(op_seq(event("A"), event("B"), event("C")), window=2.0)
        assert p.op is Op.AND
        assert {(q.i, q.j) for q in p.predicates if q.kind == "ts_lt"} == {
            (0, 1),
            (1, 2),
        }

    def test_paper_example_and_or(self):
        """AND(A, B, OR(C, D)) → AND(A,B,C) ∨ AND(A,B,D) (§5.4)."""
        p = to_dnf(
            op_and(event("A"), event("B"), op_or(event("C"), event("D"))),
            window=2.0,
        )
        assert p.op is Op.OR
        assert [sp.types for sp in p.subpatterns] == [
            ("A", "B", "C"),
            ("A", "B", "D"),
        ]

    def test_disjunction_of_sequences(self):
        p = to_dnf(
            op_or(
                op_seq(event("A"), event("B")),
                op_seq(event("C"), event("D")),
            ),
            window=2.0,
        )
        assert p.op is Op.OR and len(p.subpatterns) == 2
        for sp in p.subpatterns:
            assert any(q.kind == "ts_lt" for q in sp.predicates)

    def test_seq_over_or_distributes_order(self):
        p = to_dnf(op_seq(event("A"), op_or(event("B"), event("C"))), window=2.0)
        assert [sp.types for sp in p.subpatterns] == [("A", "B"), ("A", "C")]
        for sp in p.subpatterns:
            assert (sp.predicates[0].i, sp.predicates[0].j) == (0, 1)

    def test_negation_and_kleene_markers_survive(self):
        p = to_dnf(
            op_seq(event("A"), event("B", negated=True), event("C", kleene=True)),
            window=2.0,
        )
        assert p.negated == frozenset({1}) and p.kleene == frozenset({2})

    def test_negated_position_carries_no_ts_predicate(self):
        p = to_dnf(op_seq(event("A"), event("B", negated=True), event("C")), window=2.0)
        ts = {(q.i, q.j) for q in p.predicates if q.kind == "ts_lt"}
        assert ts == {(0, 2)}

    def test_named_predicates_attached_per_term(self):
        p = to_dnf(
            op_and(event("A"), op_or(event("B"), event("C"))),
            window=2.0,
            predicates={("A", "B"): ("diff_lt", 0.3)},
        )
        assert len(p.subpatterns[0].predicates) == 1
        assert not p.subpatterns[1].predicates

    def test_reversed_predicate_flipped(self):
        p = to_dnf(
            op_and(event("B"), event("A")),
            window=2.0,
            predicates={("A", "B"): ("diff_lt", 0.3)},
        )
        q = p.predicates[0]
        assert (q.i, q.j, q.kind) == (0, 1, "diff_gt")

    @pytest.mark.parametrize(
        "kind, flipped", [("diff_lt", "diff_gt"), ("diff_gt", "diff_lt"), ("true", "true")]
    )
    def test_reversed_kinds_flip(self, kind, flipped):
        p = to_dnf(
            op_and(event("A"), event("B")),
            window=2.0,
            predicates={("B", "A"): (kind, 0.3)},
        )
        assert [(q.i, q.j, q.kind) for q in p.predicates] == [(0, 1, flipped)]

    @pytest.mark.parametrize("kind", ["ts_lt", "serial_adj"])
    def test_reversed_order_kind_is_a_clear_error(self, kind):
        # There is no ts_gt or serial predecessor kind to flip to.
        with pytest.raises(ValueError, match=kind):
            to_dnf(
                op_and(event("A"), event("B")),
                window=2.0,
                predicates={("B", "A"): (kind, 0.5)},
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            to_dnf(op_and(event("A"), event("A")), window=2.0)

    def test_predicate_between_negated_events_rejected(self):
        with pytest.raises(ValueError, match="two negated positions"):
            to_dnf(
                op_seq(event("A"), event("B", negated=True), event("C", negated=True), event("D")),
                window=2.0,
                predicates={("B", "C"): ("diff_lt", 0.3)},
            )

    def test_predicate_of_a_type_with_itself_rejected(self):
        # A predicate relates two distinct positions.
        with pytest.raises(ValueError):
            to_dnf(
                op_seq(event("A"), event("B")),
                window=2.0,
                predicates={("A", "A"): ("diff_lt", 0.3)},
            )

    def test_opnode_validation(self):
        with pytest.raises(ValueError):
            OpNode(op=Op.AND, children=(event("A"),))
        with pytest.raises(ValueError):
            OpNode()
