"""Unit tests for the CEP pattern model (repro.core.pattern)."""
import pytest

from repro.core.pattern import (
    COMPARISONS,
    DISTINCT,
    PREDICATE_KINDS,
    Op,
    Pattern,
    Predicate,
    conj,
    disj,
    seq,
)


class TestPredicate:
    def test_valid(self):
        p = Predicate(0, 2, kind="diff_lt", sel=0.3)
        assert (p.i, p.j, p.sel) == (0, 2, 0.3)

    def test_equal_positions_rejected(self):
        # A predicate relates two distinct positions: no filter c_{i,i}.
        with pytest.raises(ValueError):
            Predicate(1, 1, kind="true", sel=0.5)

    @pytest.mark.parametrize("sel", [-0.1, 1.5])
    def test_selectivity_range(self, sel):
        with pytest.raises(ValueError):
            Predicate(0, 1, sel=sel)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Predicate(0, 1, kind="nope")

    def test_reversed_positions(self):
        with pytest.raises(ValueError):
            Predicate(2, 0)


class TestPattern:
    def test_seq_constructor(self):
        p = seq("ABC", window=5.0)
        assert p.op is Op.SEQ and p.types == ("A", "B", "C") and p.size == 3

    def test_conj_constructor(self):
        assert conj("AB").op is Op.AND

    def test_pure(self):
        assert seq("ABC").is_pure()
        assert not seq("ABC", negated=(1,)).is_pure()
        assert not seq("ABC", kleene=(1,)).is_pure()

    def test_positive(self):
        assert seq("ABCD", negated=(1, 3)).positive() == (0, 2)

    def test_window_positive(self):
        with pytest.raises(ValueError):
            seq("AB", window=0)

    def test_predicate_out_of_range(self):
        with pytest.raises(ValueError):
            conj("AB", (Predicate(0, 5),))

    def test_not_and_kl_disjoint(self):
        with pytest.raises(ValueError):
            seq("ABC", negated=(1,), kleene=(1,))

    def test_all_negated_rejected(self):
        with pytest.raises(ValueError):
            seq("AB", negated=(0, 1))

    def test_empty_types_rejected(self):
        with pytest.raises(ValueError):
            Pattern(Op.AND, (), window=1.0)

    def test_negation_position_range(self):
        with pytest.raises(ValueError):
            seq("AB", negated=(7,))

    def test_predicate_between_negated_positions_rejected(self):
        # Joint absence is not a set of independent absence checks.
        with pytest.raises(ValueError, match="two negated positions"):
            seq("ABCD", (Predicate(1, 2, "diff_lt", 0.3),), 10.0, negated=(1, 2))


TS_LT, SERIAL_ADJ, DIFF_LT = (COMPARISONS[k] for k in ("ts_lt", "serial_adj", "diff_lt"))


class TestPairConditions:
    def test_kinds_are_the_comparison_table(self):
        assert PREDICATE_KINDS == ("diff_lt", "diff_gt", "ts_lt", "serial_adj", "true")
        assert COMPARISONS["serial_adj"] == ("serial", 1, "==")
        assert COMPARISONS["true"] is None

    def test_seq_order_on_every_pair(self):
        p = seq("ABC")
        assert p.pair_conditions(0, 2, "any") == [TS_LT]

    def test_and_of_distinct_types_has_none(self):
        assert conj("AB").pair_conditions(0, 1, "any") == []

    def test_repeated_and_type_needs_distinct_events(self):
        p = conj("ABA")
        assert p.pair_conditions(0, 2, "any") == [DISTINCT]
        assert p.pair_conditions(0, 1, "any") == []

    def test_contiguity_joins_consecutive_positive_positions(self):
        p = seq("ABCD", negated=(1,))
        assert p.pair_conditions(0, 2, "contiguity") == [TS_LT, SERIAL_ADJ]
        assert p.pair_conditions(2, 3, "contiguity") == [TS_LT, SERIAL_ADJ]
        assert p.pair_conditions(0, 3, "contiguity") == [TS_LT]
        assert p.pair_conditions(0, 2, "next") == [TS_LT]

    def test_declared_after_implied_without_duplicates(self):
        preds = (
            Predicate(0, 1, "diff_lt"),
            Predicate(0, 1, "ts_lt"),
            Predicate(0, 1, "serial_adj"),
            Predicate(0, 1, "diff_lt"),
            Predicate(0, 1, "true"),
        )
        assert seq("AB", preds).pair_conditions(0, 1, "contiguity") == [
            TS_LT,
            SERIAL_ADJ,
            DIFF_LT,
        ]
        assert conj("AB", preds).pair_conditions(0, 1, "any") == [DIFF_LT, TS_LT, SERIAL_ADJ]

    @pytest.mark.parametrize("i, j", [(1, 0), (0, 0), (0, 3), (0, 1)])
    def test_rejects_other_than_positive_pairs(self, i, j):
        with pytest.raises(ValueError):
            seq("ABC", negated=(1,)).pair_conditions(i, j, "any")


class TestAbsenceConditions:
    def test_seq_orders_against_nearest_positive_neighbours(self):
        assert seq("ABCD", negated=(1,)).absence_conditions(1) == {
            0: [(TS_LT, False)],
            2: [(TS_LT, True)],
        }

    def test_seq_skips_negated_neighbours(self):
        p = seq("ABCDE", negated=(1, 2, 3))
        for j in (1, 2, 3):
            assert p.absence_conditions(j) == {0: [(TS_LT, False)], 4: [(TS_LT, True)]}

    def test_and_distinct_from_every_positive_of_its_type(self):
        p = conj("ABAA", negated=(2,))
        assert p.absence_conditions(2) == {0: [(DISTINCT, True)], 3: [(DISTINCT, True)]}

    def test_declared_predicates_keep_their_direction(self):
        # q.i == j: the absent event is the left operand; q.j == j: the right.
        preds = (Predicate(0, 2, "diff_lt"), Predicate(2, 3, "diff_gt"))
        assert conj("ABCD", preds, negated=(2,)).absence_conditions(2) == {
            0: [(DIFF_LT, False)],
            3: [(COMPARISONS["diff_gt"], True)],
        }

    def test_declared_after_implied_without_duplicates(self):
        preds = (Predicate(1, 2, "ts_lt"), Predicate(1, 2, "diff_lt"), Predicate(1, 2, "ts_lt"))
        assert seq("ABC", preds, negated=(1,)).absence_conditions(1) == {
            0: [(TS_LT, False)],
            2: [(TS_LT, True), (DIFF_LT, True)],
        }

    def test_true_partner_is_a_dependency_with_no_condition(self):
        p = conj("ABC", (Predicate(0, 1, "true"),), negated=(1,))
        assert p.absence_conditions(1) == {0: []}

    @pytest.mark.parametrize("j", [0, 2, 5])
    def test_rejects_positive_positions(self, j):
        with pytest.raises(ValueError):
            seq("ABC", negated=(1,)).absence_conditions(j)


class TestDisjunction:
    def test_or_requires_subpatterns(self):
        with pytest.raises(ValueError):
            Pattern(Op.OR, window=1.0)

    def test_or_size_is_max(self):
        d = disj([seq("AB", window=2.0), seq("ABC", window=2.0)])
        assert d.size == 3 and d.window == 2.0

    def test_or_window_default(self):
        d = disj([seq("AB", window=2.0), seq("ABC", window=7.0)])
        assert d.window == 7.0

    def test_or_rejects_own_types(self):
        with pytest.raises(ValueError):
            Pattern(Op.OR, types=("A",), window=1.0, subpatterns=(seq("AB"),))
